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
                      forward_transform, inverse_transform, read_field,
                      write_field)
from .spectral import SpectralMeasure, dalang_condition

STEP_BLOCK = 1 << 24
RNG_ID = ("philox4x64 key=[seed,path], counter advanced step*2^24; "
          "per step standard_normal((2,)+n_space) C-order, unit field fftn(e)/sqrt(N)")


def _spatial_fft_axes(dim: int) -> tuple:
    return tuple(range(1, dim + 1))


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

    def unit_pair(self, seed: int, path: int, step: int):
        """Two independent Hermitian unit fields (E|z|^2 = 1 per mode)."""
        bg = np.random.Philox(key=np.array([seed, path], dtype=np.uint64))
        bg.advance(step * STEP_BLOCK)
        rng = np.random.Generator(bg)
        e = rng.standard_normal((2,) + self.lattice.n_space)
        n_total = float(np.prod(self.lattice.n_space))
        z = np.fft.fftn(e, axes=_spatial_fft_axes(self.lattice.dim)) / math.sqrt(n_total)
        return z[0], z[1]

    def increment_amplitudes(self, seed: int, path: int, step: int) -> np.ndarray:
        """Amplitudes eta_k(xi) of the step-``step`` noise increment."""
        z1, _ = self.unit_pair(seed, path, step)
        return self.increment_scale * z1


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


def _ou_steps(model: NoiseModel, seed: int, path: int):
    """Step one path: yields (k, eta_k, u^(t_{k+1})) for k = 0 .. n_time-1.

    Draws one unit pair per step; the yielded amplitude array is fresh each
    step, so callers may keep it.
    """
    lat = model.lattice
    decay, tau = lat.decay, model.tau
    rho = lat.duhamel_weight / lat.dt
    amps = np.zeros(lat.n_space, dtype=np.complex128)
    for k in range(lat.n_time):
        z1, z2 = model.unit_pair(seed, path, k)
        eta = model.increment_scale * z1
        amps = decay * amps + (rho * eta + tau * z2)
        yield k, eta, amps


def _pathwise_integrals(model: NoiseModel, FF: np.ndarray, seed: int,
                        path: int) -> np.ndarray:
    """M(phi_j) = sum_k sum_xi Fphi_j(t_k, xi) conj(eta_k(xi)) for one path.

    ``FF`` holds the transforms at the integration times, shape
    (J, n_time, prod(n_space)); returns the J real integrals.
    """
    acc = np.zeros(FF.shape[0], dtype=np.complex128)
    for k in range(model.lattice.n_time):
        eta_conj = np.conj(model.increment_amplitudes(seed, path, k)).ravel()
        acc += FF[:, k] @ eta_conj
    return acc.real


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
    lat = model.lattice
    out = np.zeros((lat.n_time + 1,) + lat.n_space, dtype=np.complex128)
    for k, _, amps in _ou_steps(model, seed, path):
        out[k + 1] = amps
    return out


def _amplitudes_to_physical(lat: SpaceTimeLattice, amps: np.ndarray) -> np.ndarray:
    """Real field values from amplitudes along the trailing space axes."""
    axes = tuple(range(amps.ndim - lat.dim, amps.ndim))
    n_total = float(np.prod(lat.n_space))
    scale = (2.0 * np.pi) ** (-lat.dim / 2.0)
    return scale * n_total * np.real(np.fft.ifftn(amps, axes=axes))


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
    for p in range(n_paths):
        values[p] = _amplitudes_to_physical(
            lattice, spectral_amplitudes(model, seed, p))
    return PathEnsemble(lattice, measure, seed, n_paths, values)


# -- pathwise stochastic integrals and Monte Carlo checks ---------------------


def stochastic_integral(model: NoiseModel, phi: Field, seed: int, path: int) -> float:
    """M(phi) = sum_{k<n_time} sum_xi Fphi(t_k, xi) conj(eta_k(xi)) for one path."""
    FF = _integration_transforms(model.lattice, [phi])
    return float(_pathwise_integrals(model, FF, seed, path)[0])


def mc_isometry_batch(model: NoiseModel, phis, seed: int, n_paths: int) -> list:
    """Isometry check for several test fields sharing one noise ensemble.

    Drawing the increments once per (path, step) and pairing them against all
    transforms at once makes the per-field cost a plain weighted sum.  Each
    returned row compares the sample variance of M(phi_j) with the exact
    value ||phi_j||_0^2; the z-score uses the chi-squared standard deviation
    of a Gaussian sample variance, sd = exact * sqrt(2 / (n_paths - 1)).
    """
    from .lattice import norm0

    FF = _integration_transforms(model.lattice, phis)
    samples = np.zeros((n_paths, len(phis)))
    for p in range(n_paths):
        samples[p] = _pathwise_integrals(model, FF, seed, p)
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
    lat = model.lattice
    F = forward_transform(phi).values
    s1 = np.zeros((lat.n_time + 1,) + lat.n_space)
    s2 = np.zeros_like(s1)
    for p in range(n_paths):
        traj = np.zeros((lat.n_time + 1,) + lat.n_space, dtype=np.complex128)
        M = 0.0 + 0.0j
        for k, eta, amps in _ou_steps(model, seed, p):
            M += np.sum(F[k] * np.conj(eta))
            traj[k + 1] = amps
        prod = M.real * _amplitudes_to_physical(lat, traj)
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
    lat = model.lattice
    P = len(points)
    times = np.array([int(m) for m, _ in points], dtype=int)
    phases = np.stack([lat.point_phase(j).ravel() for _, j in points])  # (P, N)
    at_step = [np.nonzero(times == k + 1)[0] for k in range(lat.n_time)]
    c_d = (2.0 * np.pi) ** (-lat.dim / 2.0)
    us = np.zeros((n_paths, P))  # points at t = 0 keep u = 0
    for p in range(n_paths):
        for k, _, amps in _ou_steps(model, seed, p):
            rows = at_step[k]
            if rows.size:
                us[p, rows] = (c_d * (phases[rows] @ amps.ravel())).real
    mean = np.zeros((P, P))
    stderr = np.zeros((P, P))
    for a in range(P):
        prod = us[:, a, None] * us  # (n_paths, P)
        mean[a] = np.sum(prod, axis=0) / n_paths
        var = np.maximum(np.sum(prod * prod, axis=0) / n_paths - mean[a] ** 2, 0.0)
        stderr[a] = np.sqrt(var / n_paths)
    return {"estimate": mean, "stderr": stderr, "n_paths": n_paths}
