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
solution driven by the g-multiplied test field.

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
from pathlib import Path

import numpy as np

from .errors import DalangConditionError
from .lattice import (Field, Layout, Representation, SpaceTimeLattice,
                      forward_transform, inverse_transform, norm0, read_field,
                      write_field)
from .spectral import SpectralMeasure, dalang_condition

STEP_BLOCK = 1 << 24
RNG_ID = ("philox4x64 key=[seed,path], counter advanced step*2^24; "
          "per step standard_normal((2,)+n_space) C-order, unit field fftn(e)/sqrt(N)")
CHUNK_BYTES = 1 << 16  # unit fields per chunk; more adds memory, not speed


def _unit_fields(lat: SpaceTimeLattice, e: np.ndarray) -> np.ndarray:
    """Hermitian unit fields fftn(e)/sqrt(N) over the trailing space axes of ``e``."""
    axes = tuple(range(e.ndim - lat.dim, e.ndim))
    return np.fft.fftn(e, axes=axes) / math.sqrt(math.prod(lat.n_space))


@dataclass(frozen=True)
class NoiseModel:
    """Per-mode Gaussian tables for one (measure, lattice) pair.

    Construction refuses measures that fail the Dalang integrability
    condition; no approximate field exists to converge to in that case.
    """

    measure: SpectralMeasure
    lattice: SpaceTimeLattice

    def __post_init__(self):
        if self.measure.dim != self.lattice.dim:
            raise ValueError("measure and lattice dimension mismatch")
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
        return self.measure.density(self.lattice.xi_squared)

    @cached_property
    def increment_scale(self) -> np.ndarray:
        """Standard deviation of eta_k(xi): sqrt(dt * g * dxi^d)."""
        return np.sqrt(self.lattice.dt * self.density * self.lattice.freq_cell_volume)

    @cached_property
    def tau(self) -> np.ndarray:
        """Scale of the eta-independent part of eps_k.

        tau^2 = g dxi^d dt [ (1 - a^2)/(2 |xi|^2 dt) - rho^2 ], which is
        theta^2/12 * g dxi^d dt + O(theta^3) in theta = |xi|^2 dt; clamped
        at 0 against round-off.
        """
        lat = self.lattice
        a2 = lat.variance_weight / lat.dt
        rho = lat.duhamel_weight / lat.dt
        var = (self.density * lat.freq_cell_volume * lat.dt
               * np.maximum(a2 - rho ** 2, 0.0))
        return np.sqrt(var)

    # -- randomness ------------------------------------------------------

    @cached_property
    def _rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=0))

    def unit_pair(self, seed: int, path: int, step: int) -> np.ndarray:
        """Raw normals (2,)+n_space of draw (seed, path, step), for ``_unit_fields``.

        Re-keying the one Philox to key [seed, path], counter step*STEP_BLOCK,
        gives the numbers of a fresh Philox(key) advanced by step*STEP_BLOCK.
        """
        self._rng.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (step * STEP_BLOCK, 0, 0, 0), "key": (seed, path)},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return self._rng.standard_normal((2,) + self.lattice.n_space)

    def increment_amplitudes(self, seed: int, path: int, step: int) -> np.ndarray:
        """Amplitudes eta_k(xi) of the step-``step`` noise increment."""
        z = _unit_fields(self.lattice, self.unit_pair(seed, path, step))
        return self.increment_scale * z[0]


def sample_noise_increment(model: NoiseModel, seed: int, path: int, step: int) -> Field:
    """Physical-space noise increment W(t_{k+1}) - W(t_k) as a space-only field."""
    eta = model.increment_amplitudes(seed, path, step)
    return increment_to_physical(model, eta)


def increment_to_physical(model: NoiseModel, eta: np.ndarray) -> Field:
    """Synthesize (2 pi)^(-d/2) sum_xi eta(xi) exp(i xi x) from amplitudes."""
    lat = model.lattice
    f = Field(lat, Representation.FREQUENCY, Layout.SPACE_ONLY,
              eta / lat.freq_cell_volume)
    return inverse_transform(f)


def _ou_chunks(model: NoiseModel, seed: int, paths: range):
    """Step ``paths`` a chunk at a time, yielding (chunk, eta, amps).

    ``chunk`` is a sub-range of ``paths``; eta_k(xi) is (c, n_time)+n_space
    and u^(t_k, xi) is (c, n_time+1)+n_space, u^(t_0) = 0.  Values do not
    depend on the chunking: each (path, step) draws one unit pair.
    """
    lat = model.lattice
    rho = lat.duhamel_weight / lat.dt
    size = max(1, CHUNK_BYTES // (lat.n_time * 2 * math.prod(lat.n_space) * 16))
    for start in range(0, len(paths), size):
        chunk = paths[start:start + size]
        raw = [[model.unit_pair(seed, p, k) for k in range(lat.n_time)] for p in chunk]
        z = _unit_fields(lat, np.array(raw))
        eta = model.increment_scale * z[:, :, 0]
        eps = rho * eta + model.tau * z[:, :, 1]
        amps = np.zeros((len(chunk), lat.n_time + 1) + lat.n_space, dtype=np.complex128)
        for k in range(lat.n_time):
            np.multiply(lat.decay, amps[:, k], out=amps[:, k + 1])
            amps[:, k + 1] += eps[:, k]
        yield chunk, eta, amps


def _pathwise_integrals(model: NoiseModel, FF: np.ndarray, seed: int,
                        paths: range) -> np.ndarray:
    """M(phi_j) = sum_k sum_xi Fphi_j(t_k, xi) conj(eta_k(xi)) for each path.

    ``FF`` holds the transforms at the integration times, shape
    (J, n_time, prod(n_space)); returns (len(paths), J) real integrals, each
    path paired step by step in step order (a chunk-wide gemm rounds apart).
    """
    FF_k = [FF[:, k] for k in range(FF.shape[1])]
    rows = []
    for chunk, eta, _ in _ou_chunks(model, seed, paths):
        for eta_p in np.conj(eta).reshape(len(chunk), len(FF_k), -1):
            acc = np.zeros(FF.shape[0], dtype=np.complex128)
            for F_k, eta_k in zip(FF_k, eta_p):
                acc += F_k @ eta_k
            rows.append(acc.real)
    return np.array(rows).reshape(len(paths), FF.shape[0])


def _integration_transforms(lat: SpaceTimeLattice, phis) -> np.ndarray:
    """Stacked transforms of test fields at t_0 .. t_{n_time-1}, (J, n_time, N)."""
    for phi in phis:
        if phi.layout is not Layout.SPACE_TIME:
            raise ValueError("test field must be a space-time field")
        if phi.lattice != lat:
            raise ValueError("test field lives on a different lattice")
    return np.stack([forward_transform(phi).values[:lat.n_time].reshape(
        lat.n_time, -1) for phi in phis])


def spectral_amplitudes(model: NoiseModel, seed: int, path: int) -> np.ndarray:
    """One path of solution amplitudes u^(t_k, xi), shape (n_time+1,)+n_space."""
    _, _, amps = next(_ou_chunks(model, seed, range(path, path + 1)))
    return amps[0]


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
    n_paths: int
    values: np.ndarray  # (n_paths, n_time+1, *n_space) float64
    rng_id: str = RNG_ID

    def path(self, i: int) -> Field:
        return Field(self.lattice, Representation.PHYSICAL, Layout.SPACE_TIME,
                     self.values[i].astype(np.complex128))

    def manifest(self) -> dict:
        return {
            "format": "spde-lab-ensemble-1",
            "lattice": self.lattice.to_dict(),
            "measure": {"family": self.measure.family.value,
                        "alpha": self.measure.alpha,
                        "dim": self.measure.dim,
                        "formal": self.measure.formal},
            "seed": int(self.seed),
            "n_paths": int(self.n_paths),
            "rng_id": self.rng_id,
        }

    def save(self, directory) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        entries = []
        for i in range(self.n_paths):
            name = f"path_{i:05d}.fld"
            write_field(self.path(i), directory / name)
            digest = hashlib.sha256((directory / name).read_bytes()).hexdigest()
            entries.append({"name": name, "sha256": digest})
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
        if len(manifest["files"]) != manifest["n_paths"]:
            raise ValueError(f"manifest lists {len(manifest['files'])} files "
                             f"for {manifest['n_paths']} paths")
        lat = SpaceTimeLattice.from_dict(manifest["lattice"])
        m = manifest["measure"]
        measure = SpectralMeasure(m["family"], m["alpha"], m["dim"], m["formal"])
        values = np.zeros((manifest["n_paths"], lat.n_time + 1) + lat.n_space)
        for i, entry in enumerate(manifest["files"]):
            blob = (directory / entry["name"]).read_bytes()
            digest = hashlib.sha256(blob).hexdigest()
            if digest != entry["sha256"]:
                raise ValueError(f"checksum mismatch for {entry['name']}")
            values[i] = read_field(directory / entry["name"]).real_values()
        return PathEnsemble(lat, measure, manifest["seed"], manifest["n_paths"],
                            values, manifest["rng_id"])


def simulate_u(measure: SpectralMeasure, lattice: SpaceTimeLattice, seed: int,
               n_paths: int) -> PathEnsemble:
    """Sample ``n_paths`` exact-in-law solution paths from zero initial data."""
    model = NoiseModel(measure, lattice)
    values = np.zeros((n_paths, lattice.n_time + 1) + lattice.n_space)
    for chunk, _, amps in _ou_chunks(model, seed, range(n_paths)):
        values[chunk.start:chunk.stop] = _amplitudes_to_physical(lattice, amps)
    return PathEnsemble(lattice, measure, seed, n_paths, values)


# -- pathwise stochastic integrals and Monte Carlo checks ---------------------


def stochastic_integral(model: NoiseModel, phi: Field, seed: int, path: int) -> float:
    """M(phi) = sum_{k<n_time} sum_xi Fphi(t_k, xi) conj(eta_k(xi)) for one path."""
    FF = _integration_transforms(model.lattice, [phi])
    return float(_pathwise_integrals(model, FF, seed, range(path, path + 1))[0, 0])


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
    FF = _integration_transforms(model.lattice, phis)
    samples = _pathwise_integrals(model, FF, seed, range(n_paths))
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


def mc_isometry(model: NoiseModel, phi: Field, seed: int, n_paths: int) -> dict:
    """Sample variance of M(phi) against the exact value ||phi||_0^2."""
    return mc_isometry_batch(model, [phi], seed, n_paths)[0]


def mc_representer_field(model: NoiseModel, phi: Field, seed: int,
                         n_paths: int) -> dict:
    """Monte Carlo E[M(phi) u(t, x)] at every lattice point at once.

    Returns ``estimate`` and ``stderr`` arrays of shape (n_time+1,)+n_space,
    from running sums of the per-path products M(phi) u and of their squares,
    added in path order (memory does not grow with ``n_paths``).
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    lat = model.lattice
    F = forward_transform(phi).values
    s1 = np.zeros((lat.n_time + 1,) + lat.n_space)
    s2 = np.zeros_like(s1)
    for _, eta, amps in _ou_chunks(model, seed, range(n_paths)):
        M = np.zeros(len(eta), dtype=np.complex128)
        for k in range(lat.n_time):
            M += np.sum((F[k] * np.conj(eta[:, k])).reshape(len(eta), -1), axis=-1)
        M = M.real.reshape((-1,) + (1,) * (lat.dim + 1))
        for prod in M * _amplitudes_to_physical(lat, amps):
            s1 += prod
            s2 += prod * prod
    estimate = s1 / n_paths
    var = np.maximum(s2 / n_paths - estimate ** 2, 0.0)
    return {"estimate": estimate, "stderr": np.sqrt(var / n_paths),
            "n_paths": n_paths}


def mc_covariance(model: NoiseModel, points, seed: int, n_paths: int) -> dict:
    """Monte Carlo second-moment matrix E u(p) u(q) over the given grid points.

    ``points`` is a sequence of (time_index, space_index_tuple).  Returns the
    estimate matrix and per-entry standard errors.  Per-path values are stored
    and reduced in path order afterwards.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    lat = model.lattice
    P = len(points)
    times = np.array([int(m) for m, _ in points], dtype=int)
    phases = np.stack([lat.point_phase(j).ravel() for _, j in points])  # (P, N)
    rows_at = [(m, rows, phases[rows]) for m in range(1, lat.n_time + 1)
               if (rows := np.nonzero(times == m)[0]).size]
    c_d = (2.0 * np.pi) ** (-lat.dim / 2.0)
    us = np.zeros((n_paths, P))  # points at t = 0 keep u = 0
    for chunk, _, amps in _ou_chunks(model, seed, range(n_paths)):
        for p, amps_p in zip(chunk, amps):
            for m, rows, ph in rows_at:
                us[p, rows] = (c_d * (ph @ amps_p[m].ravel())).real
    mean = np.zeros((P, P))
    stderr = np.zeros((P, P))
    for a in range(P):
        prod = us[:, a, None] * us  # (n_paths, P)
        mean[a] = np.sum(prod, axis=0) / n_paths
        var = np.maximum(np.sum(prod * prod, axis=0) / n_paths - mean[a] ** 2, 0.0)
        stderr[a] = np.sqrt(var / n_paths)
    return {"estimate": mean, "stderr": stderr, "n_paths": n_paths}
