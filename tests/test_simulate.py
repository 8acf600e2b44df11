"""Noise sampling, exact path law, stochastic integrals, Monte Carlo engines."""

import hashlib
import json
import math

import numpy as np
import pytest

from spde_lab import (
    DalangConditionError,
    NoiseModel,
    PathEnsemble,
    SpaceTimeLattice,
    SpectralMeasure,
    kernel_eval,
    mc_covariance,
    mc_isometry,
    mc_isometry_batch,
    mc_representer_field,
    norm0,
    random_band_limited,
    sample_noise_increment,
    simulate_u,
    spectral_amplitudes,
    stochastic_integral,
)
from spde_lab import simulate
from spde_lab.markov import covariance_oracle


def _lat(n=32, nt=16, L=8.0, T=1.0):
    return SpaceTimeLattice(1, (L,), (n,), T, nt)


def _model(alpha=2.0, **kw):
    return NoiseModel(SpectralMeasure("bessel", alpha, 1), _lat(**kw))


def test_existence_condition_enforced():
    lat = SpaceTimeLattice(5, (4.0,) * 5, (4,) * 5, 0.5, 4)
    with pytest.raises(DalangConditionError):
        NoiseModel(SpectralMeasure("riesz", 1.0, 5, formal=True), lat)
    with pytest.raises(DalangConditionError):
        NoiseModel(SpectralMeasure("white", 1.0, 2),
                   SpaceTimeLattice(2, (4.0, 4.0), (8, 8), 0.5, 4))


def _fresh_draw(model, seed, path, step):
    """Raw normals of (seed, path, step) from a newly built, advanced Philox."""
    bg = np.random.Philox(key=np.array([seed, path], dtype=np.uint64))
    bg.advance(step * simulate.STEP_BLOCK)
    return np.random.Generator(bg).standard_normal((2,) + model.lattice.n_space)


def _reference_amplitudes(model, seed, path):
    """The per-step sampler: a fresh Philox, one FFT and one scalar OU step per step."""
    lat = model.lattice
    rho = lat.duhamel_weight / lat.dt
    axes = tuple(range(1, lat.dim + 1))
    out = np.zeros((lat.n_time + 1,) + lat.n_space, dtype=np.complex128)
    amps = out[0]
    for k in range(lat.n_time):
        e = _fresh_draw(model, seed, path, k)
        z1, z2 = np.fft.fftn(e, axes=axes) / math.sqrt(float(np.prod(lat.n_space)))
        eta = model.increment_scale * z1
        amps = lat.decay * amps + (rho * eta + model.tau * z2)
        out[k + 1] = amps
    return out


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_unit_pair_determinism_and_independence():
    model = _model()
    z1a, z2a = model.unit_pair(9, 3, 7)
    z1b, z2b = model.unit_pair(9, 3, 7)
    np.testing.assert_array_equal(z1a, z1b)
    np.testing.assert_array_equal(z2a, z2b)
    z1c, _ = model.unit_pair(9, 3, 8)
    assert not np.array_equal(z1a, z1c)
    z1d, _ = model.unit_pair(9, 4, 7)
    assert not np.array_equal(z1a, z1d)
    for seed, path, step in [(9, 3, 7), (0, 0, 0), (2**64 - 1, 5, 1000)]:
        assert (model.unit_pair(seed, path, step).tobytes()
                == _fresh_draw(model, seed, path, step).tobytes())


def test_unit_field_has_unit_mode_variance():
    """E|z(xi)|^2 = 1 for the Hermitian unit field, per mode."""
    model = _model(n=16, nt=4)
    acc = np.zeros(16)
    n = 400
    for p in range(n):
        z1, _ = simulate._unit_fields(model.lattice, model.unit_pair(1234, p, 0))
        assert np.allclose(z1[1:], np.conj(z1[:0:-1]))  # Hermitian
        acc += np.abs(z1) ** 2
    acc /= n
    # 400 samples of a unit-mean variable: allow 5 sigma of chi2 noise
    assert np.max(np.abs(acc - 1.0)) < 5.0 * np.sqrt(2.0 / n)


def test_noise_increment_physical_covariance_matches_kernel():
    """Var of the physical increment at x equals dt * f(0) (matching the
    covariance kernel of the driving noise) within Monte Carlo error."""
    model = _model(n=16, nt=4)
    lat = model.lattice
    n = 2000
    vals = np.empty((n, 16))
    for p in range(n):
        vals[p] = sample_noise_increment(model, 77, p, 0).values.real
    var = vals.var(axis=0)
    f0 = kernel_eval(model.measure, lat).values.real[0]
    expected = lat.dt * f0
    assert np.max(np.abs(var - expected)) < 6.0 * expected * np.sqrt(2.0 / n)


def test_simulate_paths_start_at_zero_and_are_real():
    ens = simulate_u(SpectralMeasure("bessel", 2.0, 1), _lat(), seed=5, n_paths=3)
    assert ens.values.shape == (3, 17, 32)
    assert not np.any(ens.values[:, 0])
    assert np.all(np.isfinite(ens.values))


def test_simulate_is_deterministic_and_path_count_oblivious():
    """A path's bytes depend on (seed, path) only, not on how many are drawn."""
    meas = SpectralMeasure("bessel", 2.0, 1)
    lat = _lat(n=16, nt=8)
    a = simulate_u(meas, lat, seed=42, n_paths=7).values
    b = simulate_u(meas, lat, seed=42, n_paths=3).values
    assert a[:3].tobytes() == b.tobytes()


@pytest.mark.parametrize("lat", [_lat(n=32, nt=8),
                                 SpaceTimeLattice(2, (4.0, 4.0), (8, 8), 0.5, 8)],
                         ids=["1d", "2d"])
def test_sampler_matches_per_step_reference(lat):
    """Chunked draws, transforms and OU steps give the per-step sampler's bytes."""
    meas = SpectralMeasure("bessel", 2.0 * lat.dim, lat.dim)
    model = NoiseModel(meas, lat)
    refs = [_reference_amplitudes(model, 42, p) for p in range(5)]
    for p in (0, 3):
        assert spectral_amplitudes(model, 42, p).tobytes() == refs[p].tobytes()
    scale = (2.0 * np.pi) ** (-lat.dim / 2.0) * float(np.prod(lat.n_space))
    axes = tuple(range(1, lat.dim + 1))
    phys = [scale * np.real(np.fft.ifftn(r, axes=axes)) for r in refs]
    assert simulate_u(meas, lat, 42, 5).values.tobytes() == np.stack(phys).tobytes()


def test_chunk_size_does_not_change_results(monkeypatch):
    """One path per chunk, the default chunk and one chunk give equal bytes."""
    model = _model(n=16, nt=8)
    lat = model.lattice
    rng = np.random.default_rng(6)
    phis = [random_band_limited(lat, rng) for _ in range(2)]
    pts = [(8, (0,)), (3, (5,)), (8, (11,)), (0, (2,))]
    results = []
    for chunk_bytes in (1, simulate.CHUNK_BYTES, 1 << 24):
        monkeypatch.setattr(simulate, "CHUNK_BYTES", chunk_bytes)
        iso = mc_isometry_batch(model, phis, seed=4, n_paths=37)
        cov = mc_covariance(model, pts, seed=4, n_paths=37)
        rf = mc_representer_field(model, phis[0], seed=4, n_paths=37)
        results.append(_digest(
            simulate_u(model.measure, lat, 4, 37).values,
            np.array([[r["mc_var"], r["z_score"]] for r in iso]),
            cov["estimate"], cov["stderr"], rf["estimate"], rf["stderr"]))
    assert results[0] == results[1] == results[2]


def test_mc_results_match_pinned_digests():
    """sha256 of small isometry and representer-field runs, as computed by the
    per-step sampler (numpy 2.4, OpenBLAS, x86-64; another BLAS may round
    differently)."""
    model = _model(n=16, nt=8)
    rng = np.random.default_rng(4)
    phis = [random_band_limited(model.lattice, rng) for _ in range(3)]
    rows = mc_isometry_batch(model, phis, seed=8, n_paths=50)
    assert _digest(np.array([[r["mc_var"], r["exact"], r["z_score"]] for r in rows])) == (
        "09f0a5d2af89e5e9ea73d46f35503f21de7afbafa1eac3472921f7991ffdbd49")
    model = _model(n=32, nt=8)
    phi = random_band_limited(model.lattice, np.random.default_rng(5))
    rf = mc_representer_field(model, phi, seed=77, n_paths=40)
    assert _digest(rf["estimate"], rf["stderr"]) == (
        "107ab4481b2c45dfad3fda7a96b85f13efe71b4406b5e20295b64b49f7b1ddb8")


def test_single_path_variance_matches_oracle():
    """Pathwise marginal variance at the final time matches the covariance
    oracle within Monte Carlo chi-squared error."""
    meas = SpectralMeasure("bessel", 2.0, 1)
    lat = _lat(n=16, nt=8)
    n = 3000
    ens = simulate_u(meas, lat, seed=11, n_paths=n)
    x0 = (1.0, (0.0,))
    exact = covariance_oracle(meas, lat, x0, x0)
    mc = ens.values[:, -1, 0].var()
    assert mc == pytest.approx(exact, abs=5.0 * exact * np.sqrt(2.0 / n))


def test_isometry_small_ensemble():
    model = _model(n=16, nt=8)
    phi = random_band_limited(model.lattice, np.random.default_rng(3))
    row = mc_isometry(model, phi, seed=21, n_paths=1500)
    assert row["exact"] == pytest.approx(norm0(phi, model.measure) ** 2, rel=1e-12)
    assert abs(row["z_score"]) < 5.0


@pytest.mark.parametrize("run, n_paths", [
    (lambda m, phi, n: mc_isometry(m, phi, 0, n), 1),
    (lambda m, phi, n: mc_isometry_batch(m, [phi], 0, n), 1),
    (lambda m, phi, n: mc_representer_field(m, phi, 0, n), 0),
    (lambda m, phi, n: mc_covariance(m, [(4, (3,))], 0, n), 0),
], ids=["isometry", "isometry_batch", "representer_field", "covariance"])
def test_too_few_paths_rejected(run, n_paths):
    model = _model(n=16, nt=4)
    phi = random_band_limited(model.lattice, np.random.default_rng(0))
    with pytest.raises(ValueError, match="n_paths"):
        run(model, phi, n_paths)


def test_isometry_batch_matches_single():
    model = _model(n=16, nt=8)
    rng = np.random.default_rng(4)
    phis = [random_band_limited(model.lattice, rng) for _ in range(3)]
    batch = mc_isometry_batch(model, phis, seed=8, n_paths=200)
    for phi, row in zip(phis, batch):
        single = mc_isometry(model, phi, seed=8, n_paths=200)
        assert single["mc_var"] == pytest.approx(row["mc_var"], rel=1e-12)


def test_stochastic_integral_mean_zero_linear():
    model = _model(n=16, nt=8)
    rng = np.random.default_rng(5)
    phi = random_band_limited(model.lattice, rng)
    vals = np.array([stochastic_integral(model, phi, 31, p) for p in range(600)])
    sd = norm0(phi, model.measure)
    assert abs(vals.mean()) < 5.0 * sd / np.sqrt(600)


def test_mc_covariance_agrees_with_oracle():
    model = _model(n=16, nt=8)
    lat = model.lattice
    pts_idx = [(4, (0,)), (8, (4,)), (6, (9,))]  # (time index, site index)
    pts_phys = [(m * lat.dt, (j[0] * lat.extent[0] / lat.n_space[0],))
                for m, j in pts_idx]
    rep = mc_covariance(model, pts_idx, seed=17, n_paths=4000)
    for i in range(len(pts_idx)):
        for j in range(len(pts_idx)):
            exact = covariance_oracle(model.measure, lat, pts_phys[i], pts_phys[j])
            z = (rep["estimate"][i, j] - exact) / rep["stderr"][i, j]
            assert abs(z) < 4.5


def test_ensemble_save_load_round_trip(tmp_path):
    ens = simulate_u(SpectralMeasure("bessel", 2.0, 1), _lat(n=16, nt=8),
                     seed=3, n_paths=4)
    d = ens.save(tmp_path / "run")
    again = PathEnsemble.load(d)
    np.testing.assert_array_equal(again.values, ens.values)
    assert again.seed == ens.seed
    assert again.measure == ens.measure


def test_ensemble_load_detects_corruption(tmp_path):
    ens = simulate_u(SpectralMeasure("bessel", 2.0, 1), _lat(n=16, nt=8),
                     seed=3, n_paths=2)
    d = ens.save(tmp_path / "run").parent
    manifest = d / "manifest.json"
    listed = json.loads(manifest.read_text())
    short = dict(listed, files=listed["files"][:1])
    manifest.write_text(json.dumps(short))
    with pytest.raises(ValueError, match="1 files for 2 paths"):
        PathEnsemble.load(d)
    manifest.write_text(json.dumps(listed))
    victim = sorted(d.glob("path_*.fld"))[0]
    raw = bytearray(victim.read_bytes())
    raw[-1] ^= 0xFF
    victim.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="checksum"):
        PathEnsemble.load(d)
