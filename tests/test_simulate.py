"""Noise sampling, exact path law, stochastic integrals, Monte Carlo engines."""

import hashlib
import json
import math

import numpy as np
import pytest

from spde_lab import (
    DalangConditionError,
    Field,
    NoiseModel,
    PathEnsemble,
    Representation,
    SpaceTimeLattice,
    SpectralMeasure,
    mc_covariance,
    mc_isometry_batch,
    mc_representer_field,
    norm0,
    random_band_limited,
    simulate_u,
    spatial_bump,
    write_field,
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
    scale = (2.0 * np.pi) ** (-lat.dim / 2.0) * float(np.prod(lat.n_space))
    axes = tuple(range(1, lat.dim + 1))
    phys = [scale * np.real(np.fft.ifftn(r, axes=axes)) for r in refs]
    assert simulate_u(meas, lat, 42, 5).values.tobytes() == np.stack(phys).tobytes()


def _path_bytes(lat):
    """Bytes one path adds to a chunk (the unit fields of all its steps)."""
    return lat.n_time * 2 * math.prod(lat.n_space) * 16


def test_chunk_size_does_not_change_results(monkeypatch):
    """One path per chunk, a ragged split into chunks of 3 paths, the default
    chunk and one chunk give equal bytes."""
    model = _model(n=16, nt=8)
    lat = model.lattice
    rng = np.random.default_rng(6)
    phis = [random_band_limited(lat, rng) for _ in range(2)]
    pts = [(8, (0,)), (3, (5,)), (8, (11,)), (0, (2,))]
    results = []
    for chunk_bytes in (1, 3 * _path_bytes(lat), simulate.CHUNK_BYTES, 1 << 24):
        monkeypatch.setattr(simulate, "CHUNK_BYTES", chunk_bytes)
        iso = mc_isometry_batch(model, phis, seed=4, n_paths=37)
        cov = mc_covariance(model, pts, seed=4, n_paths=37)
        rf = mc_representer_field(model, phis[0], seed=4, n_paths=37)
        results.append(_digest(
            simulate_u(model.measure, lat, 4, 37).values,
            np.array([[r["mc_var"], r["z_score"]] for r in iso]),
            cov["estimate"], cov["stderr"], rf["estimate"], rf["stderr"]))
    assert len(set(results)) == 1


def test_unit_pair_writes_into_out():
    model = _model(n=16, nt=4)
    buf = np.full((2, 16), np.nan)
    assert model.unit_pair(5, 2, 3, out=buf) is buf
    assert buf.tobytes() == model.unit_pair(5, 2, 3).tobytes()


@pytest.mark.parametrize("paths_per_chunk", [3, None], ids=["ragged", "default"])
def test_samplers_draw_one_unit_pair_per_path_and_step(monkeypatch, paths_per_chunk):
    """Each sampler calls ``unit_pair`` exactly once per (path, step) it needs:
    n_paths x n_time calls, each key once, however the paths are chunked."""
    model = _model(n=16, nt=8)
    lat = model.lattice
    if paths_per_chunk:
        monkeypatch.setattr(simulate, "CHUNK_BYTES", paths_per_chunk * _path_bytes(lat))
    phi = random_band_limited(lat, np.random.default_rng(2))
    keys = []
    draw = NoiseModel.unit_pair

    def counted(self, seed, path, step, out=None):
        keys.append((seed, path, step))
        return draw(self, seed, path, step, out=out)

    monkeypatch.setattr(NoiseModel, "unit_pair", counted)
    runs = {
        "simulate_u": lambda n: simulate_u(model.measure, lat, 3, n),
        "mc_covariance": lambda n: mc_covariance(model, [(8, (0,)), (3, (5,))], 3, n),
        "mc_isometry_batch": lambda n: mc_isometry_batch(model, [phi, phi], 3, n),
        "mc_representer_field": lambda n: mc_representer_field(model, phi, 3, n),
    }
    for name, run in runs.items():
        for n_paths in (2, 10):
            keys.clear()
            run(n_paths)
            assert sorted(keys) == [(3, p, k) for p in range(n_paths)
                                    for k in range(lat.n_time)], name


@pytest.mark.parametrize("run, message", [
    (lambda m: simulate_u(m.measure, m.lattice, -1, 1), "seed"),
    (lambda m: simulate_u(m.measure, m.lattice, 2**64, 1), "seed"),
    (lambda m: simulate_u(m.measure, m.lattice, 1.5, 1), "seed"),
    (lambda m: simulate_u(m.measure, m.lattice, True, 1), "seed"),
    (lambda m: simulate_u(m.measure, m.lattice, 0, -1), r"n_paths must be >= 0"),
    (lambda m: simulate_u(m.measure, m.lattice, 1, 2.5), "n_paths must be an integer"),
    (lambda m: simulate_u(m.measure, m.lattice, 1, True), "n_paths must be an integer"),
    (lambda m: mc_representer_field(m, random_band_limited(
        m.lattice, np.random.default_rng(0)), 1, 2.5), "n_paths must be an integer"),
    (lambda m: mc_covariance(m, [(4, (3,))], -1, 4), "seed"),
], ids=["seed_negative", "seed_too_large", "seed_float", "seed_bool", "n_paths_negative",
        "n_paths_float", "n_paths_bool", "representer_field_n_paths_float",
        "covariance_seed"])
def test_bad_draw_keys_rejected(run, message):
    """A seed outside the Philox key range, or a bool or non-integer key, is
    refused by name before anything is drawn, not left to overflow inside the
    generator or to be read as an integer."""
    with pytest.raises(ValueError, match=rf"^{message}"):
        run(_model(n=16, nt=4))


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
    row = mc_isometry_batch(model, [phi], seed=21, n_paths=1500)[0]
    assert row["exact"] == pytest.approx(norm0(phi, model.measure) ** 2, rel=1e-12)
    assert abs(row["z_score"]) < 5.0


@pytest.mark.parametrize("run, n_paths", [
    (lambda m, phi, n: mc_isometry_batch(m, [phi], 0, n)[0], 1),
    (lambda m, phi, n: mc_isometry_batch(m, [phi], 0, n), 1),
    (lambda m, phi, n: mc_representer_field(m, phi, 0, n), 0),
    (lambda m, phi, n: mc_covariance(m, [(4, (3,))], 0, n), 0),
], ids=["isometry", "isometry_batch", "representer_field", "covariance"])
def test_too_few_paths_rejected(run, n_paths):
    model = _model(n=16, nt=4)
    phi = random_band_limited(model.lattice, np.random.default_rng(0))
    with pytest.raises(ValueError, match="n_paths"):
        run(model, phi, n_paths)


@pytest.mark.parametrize("m", [9, -1], ids=["after_t_max", "negative"])
def test_mc_covariance_rejects_time_index_off_the_lattice(m):
    """A time index outside [0, n_time] is refused, not read as zero moments."""
    model = _model(n=16, nt=8)
    with pytest.raises(ValueError, match=rf"point \({m}, \(3,\)\) has a time index"):
        mc_covariance(model, [(2, (0,)), (m, (3,))], 0, 4)


@pytest.mark.parametrize("phi", [
    random_band_limited(_lat(n=16, nt=8, L=4.0), np.random.default_rng(1)),
    spatial_bump(_lat(n=16, nt=8), (4.0,), 1.0),
], ids=["other_lattice", "space_only"])
def test_representer_field_validates_its_test_field(phi):
    with pytest.raises(ValueError, match="test field"):
        mc_representer_field(_model(n=16, nt=8), phi, 0, 4)


def test_isometry_batch_matches_single():
    model = _model(n=16, nt=8)
    rng = np.random.default_rng(4)
    phis = [random_band_limited(model.lattice, rng) for _ in range(3)]
    batch = mc_isometry_batch(model, phis, seed=8, n_paths=200)
    for phi, row in zip(phis, batch):
        single = mc_isometry_batch(model, [phi], seed=8, n_paths=200)[0]
        assert single["mc_var"] == pytest.approx(row["mc_var"], rel=1e-12)


def test_stochastic_integral_mean_zero_linear():
    model = _model(n=16, nt=8)
    rng = np.random.default_rng(5)
    phi = random_band_limited(model.lattice, rng)
    FF = simulate._integration_transforms(model.lattice, [phi])
    vals = np.concatenate([simulate._pathwise_integrals(FF, eta) for _, eta, _
                           in simulate._ou_chunks(model, 31, 600)])[:, 0]
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


def test_ensemble_path_count_is_the_number_of_value_rows(tmp_path):
    ens = simulate_u(SpectralMeasure("bessel", 2.0, 1), _lat(n=16, nt=8),
                     seed=3, n_paths=3)
    two = PathEnsemble(ens.lattice, ens.measure, ens.seed, ens.values[:2])
    assert (ens.n_paths, two.n_paths) == (3, 2)
    again = PathEnsemble.load(two.save(tmp_path / "two"))
    assert again.n_paths == 2
    np.testing.assert_array_equal(again.values, ens.values[:2])


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


def _saved(tmp_path, seed=3, name="run"):
    ens = simulate_u(SpectralMeasure("bessel", 2.0, 1), _lat(n=16, nt=8),
                     seed=seed, n_paths=2)
    return ens, ens.save(tmp_path / name).parent


def test_ensemble_load_decodes_the_bytes_it_verified(tmp_path, monkeypatch):
    """A container rewritten after its checksum passed does not reach the values."""
    ens, d = _saved(tmp_path)
    _, other = _saved(tmp_path, seed=4, name="other")
    real_sha256 = hashlib.sha256
    swapped = []

    def sha256_then_swap(blob):
        digest = real_sha256(blob)
        if not swapped:  # rewrite path 0 right after it is hashed
            swapped.append((d / "path_00000.fld").write_bytes(
                (other / "path_00000.fld").read_bytes()))
        return digest

    monkeypatch.setattr(simulate.hashlib, "sha256", sha256_then_swap)
    np.testing.assert_array_equal(PathEnsemble.load(d).values, ens.values)


def _edit_manifest(d, edit):
    """Rewrite the manifest as ``edit`` leaves it, or as the list it returns."""
    manifest = json.loads((d / "manifest.json").read_text())
    replaced = edit(manifest)
    (d / "manifest.json").write_text(
        json.dumps(replaced if isinstance(replaced, list) else manifest))


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.pop("rng_id"), "missing key 'rng_id'"),
    (lambda m: m["files"][1].pop("sha256"), "missing key 'sha256'"),
    (lambda m: m["lattice"].pop("t_max"), "missing key 't_max'"),
    (lambda m: m.update(format="spde-lab-ensemble-2"), "unknown ensemble format"),
    (lambda m: m["lattice"].update(t_max=float("inf")), "must be finite"),
    (lambda m: m["measure"].update(alpha=float("nan")), "alpha must be finite"),
    (lambda m: [m], "malformed manifest"),
    (lambda m: m["lattice"].update(extent=8.0), "malformed manifest"),
    (lambda m: m.update(files=["path_00000.fld", m["files"][1]]), "malformed manifest"),
    (lambda m: m["measure"].update(alpha="2"), "malformed manifest"),
    (lambda m: m["measure"].update(dim=2), "measure dim 2 != lattice dim 1"),
    (lambda m: m.update(rng_id=5), "manifest rng_id must be a string, got 5"),
], ids=["top_key", "file_key", "lattice_key", "format", "non_finite_lattice",
        "non_finite_alpha", "list", "scalar_extent", "file_entry_text", "alpha_text",
        "measure_dim_2", "rng_id_int"])
def test_ensemble_load_rejects_bad_manifest(tmp_path, edit, message):
    """Each refusal is one ValueError, raised before any file is read: the
    path files are gone."""
    _, d = _saved(tmp_path)
    _edit_manifest(d, edit)
    for path in d.glob("*.fld"):
        path.unlink()
    with pytest.raises(ValueError, match=message):
        PathEnsemble.load(d)


@pytest.mark.parametrize("key", ["n_paths", "seed"])
def test_ensemble_load_rejects_non_integer_counts(tmp_path, key):
    _, d = _saved(tmp_path)
    _edit_manifest(d, lambda m: m.update({key: float(m[key])}))
    with pytest.raises(ValueError, match=f"manifest {key} must be an integer"):
        PathEnsemble.load(d)


@pytest.mark.parametrize("absolute", [True, False], ids=["absolute", "parent"])
def test_ensemble_load_rejects_names_outside_its_directory(tmp_path, absolute):
    """A listed name that leaves the directory is refused, even when the file
    it points at exists and matches its checksum."""
    _, d = _saved(tmp_path)
    outside = tmp_path / "outside.fld"
    outside.write_bytes((d / "path_00000.fld").read_bytes())
    name = str(outside) if absolute else "../outside.fld"
    _edit_manifest(d, lambda m: m["files"][0].update(name=name))
    with pytest.raises(ValueError, match="not a plain file name"):
        PathEnsemble.load(d)


def test_ensemble_load_rejects_container_of_another_shape(tmp_path):
    """A checksummed space-only container would broadcast over every slice."""
    ens, d = _saved(tmp_path)
    blob = write_field(Field(ens.lattice, Representation.PHYSICAL, ens.values[0, 1]),
                       d / "path_00000.fld")
    _edit_manifest(d, lambda m: m["files"][0].update(
        sha256=hashlib.sha256(blob).hexdigest()))
    with pytest.raises(ValueError, match="not a physical space-time field"):
        PathEnsemble.load(d)


def test_mc_covariance_rejects_empty_points():
    with pytest.raises(ValueError, match="points is empty"):
        mc_covariance(_model(n=16, nt=4), [], seed=0, n_paths=4)


def test_mc_isometry_batch_rejects_empty_phis():
    with pytest.raises(ValueError, match="phis is empty"):
        mc_isometry_batch(_model(n=16, nt=4), [], seed=0, n_paths=4)
