"""Sampling of the solution field and of the driving noise, plus Monte Carlo checks.

The driving noise is white in time and spatially homogeneous with spectral
density g.  Per time step and Fourier mode the increment amplitude is

    eta_k(xi) ~ CN(0, dt * g(|xi|^2) * dxi^d),   eta_k(-xi) = conj(eta_k(xi)),

and the solution amplitudes follow the exact Ornstein-Uhlenbeck step

    u^(t_{k+1}, xi) = a u^(t_k, xi) + eps_k(xi),      a = exp(-|xi|^2 dt),

where eps_k is the exactly-distributed stochastic-convolution increment,
coupled to eta_k through its conditional law

    eps_k = rho eta_k + tau z,   rho = (1 - a) / (|xi|^2 dt),  z fresh unit noise,

so that pathwise stochastic integrals M(phi) = sum_k sum_xi Fphi(t_k) conj(eta_k)
and the sampled field have exactly the continuum joint second moments at grid
times: E M(phi)^2 = ||phi||_0^2 and E M(phi) u(t,x) equals the forward Duhamel
solution driven by the g-multiplied test field.  The tables a, rho and
tau^2 / (g dxi^d dt) and the step itself belong to the lattice
(``SpaceTimeLattice.decay``, ``loading``, ``innovation`` and ``march``).

Randomness is counter-based and reproducible: each (seed, path) pair keys an
independent Philox stream, and each time step advances the counter to a fixed
block offset, so a path's values do not depend on how many paths are drawn.
Draws stay keyed per (seed, path, step); they are transformed and stepped per
chunk of paths, which changes no value.  A ``NoiseModel`` re-keys one cached
generator for every draw, so it must not be shared across threads.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from pathlib import Path

import numpy as np

from .errors import DalangConditionError
from .lattice import (Field, Representation, SpaceTimeLattice, _grid_density,
                      _test_field, decode_field, forward_transform, norm0, write_field)
from .spectral import SpectralMeasure, dalang_condition

STEP_BLOCK = 1 << 24
RNG_ID = ("philox4x64 key=[seed,path], counter advanced step*2^24; "
          "per step standard_normal((2,)+n_space) C-order, unit field fftn(e)/sqrt(N)")
# Unit fields per chunk.  On 2 CPUs, 512 KiB instead of 64 KiB (8x fewer FFT,
# march and moment calls) cut the benchmark's mc_pathwise wall time by 30% for
# +1.4% peak RSS; 1 MiB saved a few % more time for another +2% RSS.
CHUNK_BYTES = 1 << 19


def _unit_fields(lat: SpaceTimeLattice, e: np.ndarray) -> np.ndarray:
    """Hermitian unit fields fftn(e)/sqrt(N) over the trailing space axes of ``e``."""
    z = np.fft.fftn(e, axes=tuple(range(e.ndim - lat.dim, e.ndim)))
    z /= math.sqrt(math.prod(lat.n_space))
    return z


@dataclass(frozen=True)
class NoiseModel:
    """Per-mode Gaussian tables for one (measure, lattice) pair.

    Construction refuses measures that fail the Dalang integrability
    condition; no approximate field exists to converge to in that case.
    """

    measure: SpectralMeasure
    lattice: SpaceTimeLattice

    def __post_init__(self):
        self.density  # refuses a measure of another dimension first
        if not dalang_condition(self.measure):
            m = self.measure
            raise DalangConditionError(
                f"sampling refused: family={m.family.value} alpha={m.alpha} "
                f"dim={m.dim} fails the Dalang condition "
                "int g(xi)/(1+|xi|^2) dxi < inf; the solution is not a "
                "random function on this space"
            )

    @cached_property
    def density(self) -> np.ndarray:
        return _grid_density(self.measure, self.lattice)

    @cached_property
    def increment_scale(self) -> np.ndarray:
        """Standard deviation of eta_k(xi): sqrt(dt * g * dxi^d)."""
        return np.sqrt(self.lattice.dt * self.density * self.lattice.freq_cell_volume)

    @cached_property
    def tau(self) -> np.ndarray:
        """Scale of the eta-independent part of eps_k.

        tau^2 = g dxi^d dt [ (1 - a^2)/(2 |xi|^2 dt) - rho^2 ] (the lattice's
        ``innovation`` table), which is theta^2/12 * g dxi^d dt + O(theta^3)
        in theta = |xi|^2 dt.
        """
        lat = self.lattice
        return np.sqrt(self.density * lat.freq_cell_volume * lat.dt * lat.innovation)

    # -- randomness ------------------------------------------------------

    @cached_property
    def _rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=0))

    @cached_property
    def _rng_state(self) -> dict:
        """Philox state with an empty output buffer; ``unit_pair`` sets "state"."""
        return {"bit_generator": "Philox", "state": None,
                "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def unit_pair(self, seed: int, path: int, step: int,
                  out: np.ndarray | None = None) -> np.ndarray:
        """Raw normals (2,)+n_space of draw (seed, path, step), for ``_unit_fields``,
        written into ``out`` when given.

        Re-keying the one Philox to key [seed, path], counter step*STEP_BLOCK,
        gives the numbers of a fresh Philox(key) advanced by step*STEP_BLOCK.
        The keys are not checked here: ``_ou_chunks`` checks them once per call.
        """
        state = self._rng_state
        state["state"] = {"counter": (step * STEP_BLOCK, 0, 0, 0), "key": (seed, path)}
        self._rng.bit_generator.state = state
        return self._rng.standard_normal((2,) + self.lattice.n_space, out=out)


def _ou_chunks(model: NoiseModel, seed: int, n_paths: int):
    """Draw paths 0 .. n_paths-1 a chunk at a time, yielding (chunk, eta, eps).

    ``chunk`` is a range of paths, eta_k(xi) is (c, n_time, N) and
    eps_k(xi) is (c, n_time)+n_space; ``lattice.march(eps)`` gives u^(t_k, xi).
    Values do not depend on the chunking: each (path, step) draws one unit pair.
    The seed (half of the Philox key) and ``n_paths`` are checked here,
    before anything is drawn.
    """
    if isinstance(seed, bool) or not isinstance(seed, Integral) or not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    if isinstance(n_paths, bool) or not isinstance(n_paths, Integral):
        raise ValueError(f"n_paths must be an integer, got {n_paths!r}")
    if n_paths < 0:
        raise ValueError(f"n_paths must be >= 0, got {n_paths}")
    lat = model.lattice
    size = max(1, CHUNK_BYTES // (lat.n_time * 2 * math.prod(lat.n_space) * 16))
    raw = np.empty((min(size, n_paths), lat.n_time, 2) + lat.n_space)
    return (_ou_chunk(model, seed, range(start, min(start + size, n_paths)), raw)
            for start in range(0, n_paths, size))


def _ou_chunk(model: NoiseModel, seed: int, chunk: range, raw: np.ndarray) -> tuple:
    """(chunk, eta, eps) of ``_ou_chunks`` for one chunk, drawn into ``raw``.

    eta and eps are formed in place in the two halves of the unit fields z:
    eta = s z_0, eps = tau z_1 + rho eta, the same bytes as rho eta + tau z_1.
    """
    lat = model.lattice
    raw = raw[:len(chunk)]
    for i, p in enumerate(chunk):
        for k in range(lat.n_time):
            model.unit_pair(seed, p, k, out=raw[i, k])
    z = _unit_fields(lat, raw)
    eta, eps = z[:, :, 0], z[:, :, 1]
    eta *= model.increment_scale
    eps *= model.tau
    eps += lat.loading * eta
    return chunk, eta.reshape(len(chunk), lat.n_time, -1), eps


def _pathwise_integrals(FF: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """M(phi_j) = sum_k sum_xi Fphi_j(t_k, xi) conj(eta_k(xi)) for a chunk of paths.

    ``FF`` holds the transforms at the integration times, shape
    (J, n_time, prod(n_space)); returns (c, J) real integrals, added in step
    order from one gemv per path and step (a chunk-wide gemm rounds apart).
    """
    return sum((FF[:, k] @ np.conj(eta[:, k, :, None]))[..., 0]
               for k in range(FF.shape[1])).real


def _moments(products, n_paths: int) -> dict:
    """``estimate`` and ``stderr`` of E[X] from chunks (c, ...) of per-path X.

    The sums of X and X^2 add one path after another from zero (numpy sums
    axis 0 row by row when a row holds two or more values, as each stacked
    (X, X^2) row does).  The isometry keeps its pairwise column sums and gemv
    pairing, the representer field its ``np.sum`` pairing: sharing either one
    rounds apart by ~1e-14 on M(phi).
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    sums = 0.0
    for x in products:
        x = np.stack([x, x * x], axis=1)
        sums = np.sum(np.concatenate([np.broadcast_to(sums, x.shape[1:])[None], x]), axis=0)
    estimate = sums[0] / n_paths
    var = np.maximum(sums[1] / n_paths - estimate ** 2, 0.0)
    return {"estimate": estimate, "stderr": np.sqrt(var / n_paths), "n_paths": n_paths}


def _integration_transforms(lat: SpaceTimeLattice, phis) -> np.ndarray:
    """Stacked transforms of test fields at t_0 .. t_{n_time-1}, (J, n_time, N)."""
    for phi in phis:
        _test_field(phi, lat)
    return np.stack([forward_transform(phi).values[:lat.n_time].reshape(
        lat.n_time, -1) for phi in phis])


def _amplitudes_to_physical(lat: SpaceTimeLattice, amps: np.ndarray) -> np.ndarray:
    """Real field values from amplitudes along the trailing space axes."""
    axes = tuple(range(amps.ndim - lat.dim, amps.ndim))
    scale = (2.0 * np.pi) ** (-lat.dim / 2.0)
    return scale * math.prod(lat.n_space) * np.real(np.fft.ifftn(amps, axes=axes))


@dataclass
class PathEnsemble:
    """In-memory ensemble of physical solution paths plus its provenance."""

    lattice: SpaceTimeLattice
    measure: SpectralMeasure
    seed: int
    values: np.ndarray  # (n_paths, n_time+1, *n_space) float64
    rng_id: str = RNG_ID

    @property
    def n_paths(self) -> int:
        return len(self.values)

    def path(self, i: int) -> Field:
        return Field(self.lattice, Representation.PHYSICAL, self.values[i].astype(np.complex128))

    def manifest(self) -> dict:
        return {
            "format": "spde-lab-ensemble-1",
            "lattice": self.lattice.to_dict(),
            "measure": {"family": self.measure.family.value,
                        "alpha": self.measure.alpha,
                        "dim": self.measure.dim,
                        "formal": self.measure.formal},
            "seed": int(self.seed),
            "n_paths": self.n_paths,
            "rng_id": self.rng_id,
        }

    def save(self, directory) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        entries = []
        for i in range(self.n_paths):
            name = f"path_{i:05d}.fld"
            blob = write_field(self.path(i), directory / name)
            entries.append({"name": name, "sha256": hashlib.sha256(blob).hexdigest()})
        manifest = self.manifest()
        manifest["files"] = entries
        out = directory / "manifest.json"
        out.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return out

    @staticmethod
    def load(directory) -> "PathEnsemble":
        directory = Path(directory)
        if directory.name == "manifest.json":  # accept what save() returned
            directory = directory.parent
        manifest = json.loads((directory / "manifest.json").read_text())
        try:
            if manifest["format"] != "spde-lab-ensemble-1":
                raise ValueError(f"unknown ensemble format {manifest['format']!r}")
            files = [(e["name"], e["sha256"]) for e in manifest["files"]]
            if bad := [n for n, _ in files if n in ("", ".", "..") or Path(n).name != n]:
                raise ValueError(f"manifest file name {bad[0]!r} is not a plain file name")
            n_paths, seed, rng_id = (manifest[k] for k in ("n_paths", "seed", "rng_id"))
            if bad := [k for k in ("n_paths", "seed") if type(manifest[k]) is not int]:
                raise ValueError(f"manifest {bad[0]} must be an integer, "
                                 f"got {manifest[bad[0]]!r}")
            if not isinstance(rng_id, str):
                raise ValueError(f"manifest rng_id must be a string, got {rng_id!r}")
            lat = SpaceTimeLattice.from_dict(manifest["lattice"])
            m = manifest["measure"]
            measure = SpectralMeasure(m["family"], m["alpha"], m["dim"], m["formal"])
            _grid_density(measure, lat)  # refuses a measure of another dimension
        except KeyError as exc:
            raise ValueError(f"manifest is missing key {exc}") from None
        except TypeError as exc:  # e.g. a list or a number where a mapping belongs
            raise ValueError(f"malformed manifest: {exc}") from None
        if len(files) != n_paths:
            raise ValueError(f"manifest lists {len(files)} files for {n_paths} paths")
        values = np.zeros((n_paths,) + lat.shape)
        for i, (name, sha256) in enumerate(files):
            blob = (directory / name).read_bytes()
            if hashlib.sha256(blob).hexdigest() != sha256:
                raise ValueError(f"checksum mismatch for {name}")
            f = decode_field(blob)
            if (f.lattice, f.representation, f.space_time) != (
                    lat, Representation.PHYSICAL, True):
                raise ValueError(f"{name} is not a physical space-time field "
                                 "on the manifest's lattice")
            values[i] = f.real_values()
        return PathEnsemble(lat, measure, seed, values, rng_id)


def simulate_u(measure: SpectralMeasure, lattice: SpaceTimeLattice, seed: int,
               n_paths: int) -> PathEnsemble:
    """Sample ``n_paths`` exact-in-law solution paths from zero initial data."""
    model = NoiseModel(measure, lattice)
    chunks = _ou_chunks(model, seed, n_paths)
    values = np.zeros((n_paths,) + lattice.shape)
    for chunk, _, eps in chunks:
        values[chunk.start:chunk.stop] = _amplitudes_to_physical(lattice, lattice.march(eps))
    return PathEnsemble(lattice, measure, seed, values)


# -- pathwise stochastic integrals and Monte Carlo checks ---------------------


def mc_isometry_batch(model: NoiseModel, phis, seed: int, n_paths: int) -> list:
    """Isometry check for several test fields sharing one noise ensemble.

    Drawing the increments once per (path, step) and pairing them against all
    transforms at once makes the per-field cost a plain weighted sum.  Each
    returned row compares the sample variance of M(phi_j) with the exact
    value ||phi_j||_0^2; the z-score uses the chi-squared standard deviation
    of a Gaussian sample variance, sd = exact * sqrt(2 / (n_paths - 1)).
    """
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2 for a sample variance, got {n_paths}")
    if len(phis) == 0:
        raise ValueError("phis is empty: need at least one test field")
    FF = _integration_transforms(model.lattice, phis)
    samples = np.concatenate([_pathwise_integrals(FF, eta) for _, eta, _
                              in _ou_chunks(model, seed, n_paths)])
    rows = []
    for j, phi in enumerate(phis):
        exact = norm0(phi, model.measure) ** 2
        col = samples[:, j]
        mc = float(np.sum(col ** 2) / n_paths - (np.sum(col) / n_paths) ** 2)
        sd = exact * math.sqrt(2.0 / (n_paths - 1))
        rows.append({"mc_var": mc, "exact": exact,
                     "z_score": (mc - exact) / sd if sd > 0 else 0.0,
                     "n_paths": n_paths})
    return rows


def mc_representer_field(model: NoiseModel, phi: Field, seed: int,
                         n_paths: int) -> dict:
    """Monte Carlo E[M(phi) u(t, x)] at every lattice point at once.

    Returns ``estimate`` and ``stderr`` arrays of shape (n_time+1,)+n_space
    from the per-path products M(phi) u; memory does not grow with ``n_paths``.
    """
    lat = model.lattice
    F = _integration_transforms(lat, [phi])[0]

    def products():
        for _, eta, eps in _ou_chunks(model, seed, n_paths):
            M = sum(np.sum(F[k] * np.conj(eta[:, k]), axis=-1) for k in range(lat.n_time))
            yield (M.real.reshape((-1,) + (1,) * (lat.dim + 1))
                   * _amplitudes_to_physical(lat, lat.march(eps)))

    return _moments(products(), n_paths)


def mc_covariance(model: NoiseModel, points, seed: int, n_paths: int) -> dict:
    """Monte Carlo second-moment matrix E u(p) u(q) over the given grid points.

    ``points`` is a sequence of (time_index in [0, n_time], space_index_tuple);
    space indices wrap as j mod n.  Returns the estimate and standard errors.
    """
    lat = model.lattice
    if len(points) == 0:
        raise ValueError("points is empty: need at least one grid point")
    for m, j in points:
        lat.grid_point(m, j)  # raises on a bad index, time off the lattice included
    times = np.array([m for m, _ in points], dtype=int)
    phases = np.stack([lat.point_phase(j).ravel() for _, j in points])  # (P, N)
    rows_at = [(m, rows, phases[rows]) for m in range(1, lat.n_time + 1)
               if (rows := np.nonzero(times == m)[0]).size]
    c_d = (2.0 * np.pi) ** (-lat.dim / 2.0)

    def products():
        for chunk, _, eps in _ou_chunks(model, seed, n_paths):
            amps = lat.march(eps).reshape(len(chunk), lat.n_time + 1, -1)
            us = np.zeros((len(chunk), len(points)))  # points at t = 0 keep u = 0
            for m, rows, ph in rows_at:
                us[:, rows] = (c_d * (ph @ amps[:, m, :, None])[..., 0]).real
            yield us[:, :, None] * us[:, None, :]

    return _moments(products(), n_paths)
