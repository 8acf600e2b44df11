"""Heat solvers: exact exponential stepping, adjoint duality, studies."""

import hashlib

import numpy as np
import pytest

from spde_lab import (
    BumpSpec,
    Field,
    Representation,
    SpaceTimeLattice,
    SpectralMeasure,
    fourier_bound_check,
    l2_inner,
    random_band_limited,
    riemann_convergence_study,
    solve_backward,
    solve_forward,
    space_time_bump,
)
from spde_lab import pde
from spde_lab.pde import riemann_convergence_study as study_fn


def _lat(n=64, nt=32, L=2.0 * np.pi, T=1.0):
    return SpaceTimeLattice(1, (L,), (n,), T, nt)


def test_zero_forcing_gives_zero_solution():
    lat = _lat()
    h = solve_forward(Field(lat, Representation.PHYSICAL, np.zeros(lat.shape)))
    assert not np.any(h.values)


def test_forward_single_mode_closed_form():
    """For phi1 = sin(x) held on every step, h(t) = (1 - e^{-t}) sin(x) at
    grid times (the step-held forcing is integrated exactly per step)."""
    lat = _lat()
    x = lat.space_axes()[0]
    vals = np.repeat(np.sin(x)[None, :], lat.n_time + 1, axis=0)
    phi1 = Field(lat, Representation.PHYSICAL, vals.astype(np.complex128))
    h = solve_forward(phi1)
    t = lat.times()
    expected = (1.0 - np.exp(-t))[:, None] * np.sin(x)[None, :]
    np.testing.assert_allclose(h.values.real, expected, atol=1e-13)
    assert np.max(np.abs(h.values.imag)) < 1e-13


def test_backward_single_mode_closed_form():
    """For eta = sin(x) on every slice, the adjoint (right-endpoint) solution
    is phi(r) = (1 - e^{-(T - r)}) sin(x) at grid times, to 1e-10."""
    lat = _lat()
    x = lat.space_axes()[0]
    vals = np.repeat(np.sin(x)[None, :], lat.n_time + 1, axis=0)
    eta = Field(lat, Representation.PHYSICAL, vals.astype(np.complex128))
    phi = solve_backward(eta)
    t = lat.times()
    expected = (1.0 - np.exp(-(lat.t_max - t)))[:, None] * np.sin(x)[None, :]
    np.testing.assert_allclose(phi.values.real, expected, atol=1e-10)


def test_forward_initial_and_backward_terminal_conditions():
    lat = _lat()
    f = random_band_limited(lat, np.random.default_rng(0))
    h = solve_forward(f)
    phi = solve_backward(f)
    assert not np.any(h.values[0])     # h(0) = 0
    assert not np.any(phi.values[-1])  # phi(T) = 0


def test_semigroup_two_half_steps_equal_one_full_step():
    """Exact exponentials: stepping dt twice equals stepping 2 dt once, 1e-12."""
    coarse = _lat(nt=16)
    fine = _lat(nt=32)
    np.testing.assert_allclose(fine.decay ** 2, coarse.decay, rtol=1e-12)


def test_duality_forward_backward():
    """<solve_forward(phi1), eta>_L2 = <phi1, solve_backward(eta)>_L2 to 1e-10.

    The discrete adjoint identity is exact (left-endpoint forward recursion
    against right-endpoint backward recursion) for fields vanishing at the
    final slice, which random_band_limited guarantees by construction.
    """
    lat = _lat(n=32, nt=16)
    rng = np.random.default_rng(1)
    for _ in range(4):
        phi1 = random_band_limited(lat, rng)
        eta = random_band_limited(lat, rng)
        lhs = l2_inner(solve_forward(phi1), eta).real
        rhs = l2_inner(phi1, solve_backward(eta)).real
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_positivity_of_zero_mode_forcing():
    lat = _lat()
    vals = np.ones((lat.n_time + 1, lat.n_space[0]), dtype=np.complex128)
    h = solve_forward(Field(lat, Representation.PHYSICAL, vals))
    assert np.all(h.values.real >= -1e-14)


def test_fourier_bound_zero_eta():
    lat = SpaceTimeLattice(1, (8.0,), (64,), 1.0, 64)
    rep = fourier_bound_check(Field(lat, Representation.PHYSICAL, np.zeros(lat.shape)))
    assert rep["n_hat"] == 0.0
    assert rep["stable"]


def test_fourier_bound_scales_linearly():
    lat = SpaceTimeLattice(1, (8.0,), (64,), 1.0, 64)
    eta = space_time_bump(lat, 0.5, 0.15, (4.0,), (1.0,))
    eta3 = space_time_bump(lat, 0.5, 0.15, (4.0,), (1.0,), amplitude=3.0)
    r1 = fourier_bound_check(eta)
    r3 = fourier_bound_check(eta3)
    assert r3["n_hat"] == pytest.approx(3.0 * r1["n_hat"], rel=1e-12)
    assert r1["stable"] and r3["stable"]


def test_fourier_bound_rejects_margin_violation():
    lat = SpaceTimeLattice(1, (8.0,), (64,), 1.0, 64)
    eta = space_time_bump(lat, 0.5, 0.6, (4.0,), (1.0,))  # touches t = 0 and T
    with pytest.raises(ValueError):
        fourier_bound_check(eta)


def test_riemann_study_monotone_with_good_order():
    meas = SpectralMeasure("bessel", 2.0, 1)
    bump = BumpSpec(t_center=0.5, t_width=0.3, x_center=(4.0,), x_width=(1.0,))
    study = riemann_convergence_study(meas, bump, [16, 32, 64], (8.0,), 1.0)
    errs = [r["norm0_error"] for r in study["rows"]]
    assert study["monotone"]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert study["min_observed_order"] >= 0.8


def test_riemann_study_runs_in_two_dimensions():
    """The periodized kernel broadcasts over every axis's offsets in d >= 2."""
    meas = SpectralMeasure("bessel", 2.0, 2)
    bump = BumpSpec(t_center=0.5, t_width=0.25, x_center=(4.0, 4.0),
                    x_width=(1.2, 1.2))
    study = riemann_convergence_study(meas, bump, [4, 8, 16], (8.0, 8.0), 1.0)
    errs = [r["norm0_error"] for r in study["rows"]]
    assert study["monotone"] and all(a > b for a, b in zip(errs, errs[1:]))
    assert study["reference"] == {"n_space": 32, "n_time": 32}


_RIEMANN_CASES = {
    1: (SpectralMeasure("bessel", 2.0, 1),
        BumpSpec(t_center=0.5, t_width=0.3, x_center=(4.0,), x_width=(1.0,)),
        [8, 16, 32], (8.0,)),
    2: (SpectralMeasure("bessel", 2.0, 2),
        BumpSpec(t_center=0.5, t_width=0.25, x_center=(4.0, 4.0), x_width=(1.2, 1.2)),
        [4, 8, 16], (8.0, 8.0)),
    3: (SpectralMeasure("bessel", 2.0, 3),
        BumpSpec(t_center=0.5, t_width=0.2, x_center=(1.5, 1.5, 1.5),
                 x_width=(1.0, 1.2, 0.8)),
        [2, 4, 8], (4.0, 4.0, 4.0)),
}
# sha256 of each study's repr and, per level, the bytes of phi_n - phi
# (numpy 2.4, OpenBLAS, x86-64; the same under 1 and 2 BLAS threads),
# recorded from the per-source-time kernel loop the blocks replaced
_RIEMANN_PINNED = {
    1: "f27a8bd03c0a38ab1c994e540f7560448b90c83abc2bdd6bc74bf39dcf263a02",
    2: "4e8a2e1f21417f235de793ca295e189296d88099975e9b51865ad7a1a8849ba0",
    3: "5557ad568c53eb53c0ecd952e343c92e5575c1f553ce97dae1dd0938c9d88480",
}


@pytest.mark.parametrize("d", sorted(_RIEMANN_CASES), ids=["1d", "2d", "3d"])
def test_riemann_study_bytes_do_not_depend_on_the_block_size(d, monkeypatch):
    """One source time per block, the default blocks and one block per step
    all give the pinned study and error fields byte for byte."""
    measure, bump, levels, extent = _RIEMANN_CASES[d]
    captured = []
    norm0 = pde.norm0  # the study reduces each level's phi_n - phi with norm0
    monkeypatch.setattr(pde, "norm0",
                        lambda f, m: captured.append(f.values.copy()) or norm0(f, m))
    for chunk_bytes in (1, pde.CHUNK_BYTES, 1 << 40):
        monkeypatch.setattr(pde, "CHUNK_BYTES", chunk_bytes)
        study = riemann_convergence_study(measure, bump, levels, extent, 1.0)
        h = hashlib.sha256(repr(study).encode())
        for diff in captured:
            h.update(diff.tobytes())
        captured.clear()
        assert h.hexdigest() == _RIEMANN_PINNED[d]


def _counting_kernel(monkeypatch) -> list:
    """Patch the study's heat kernel to record (offsets, lag) per row it makes;
    returns the list of calls, each a list of rows."""
    calls = []
    kernel = pde.periodized_heat_kernel
    def counting(t, diffs, extent):
        calls.append([(diffs[0].tobytes(), lag) for lag in t.ravel().tolist()])
        return kernel(t, diffs, extent)
    monkeypatch.setattr(pde, "periodized_heat_kernel", counting)
    return calls


def test_riemann_kernel_rows_are_evaluated_once_per_distinct_lag(monkeypatch):
    """On the benchmark's Riemann config each (level, lag) gets one kernel row:
    298 rows in all, where a row per (step, source time) made 4,288."""
    calls = _counting_kernel(monkeypatch)
    bump = BumpSpec(t_center=0.5, t_width=0.3, x_center=(4.0,), x_width=(1.0,))
    riemann_convergence_study(SpectralMeasure("bessel", 2.0, 1), bump, [16, 32, 64],
                              (8.0,), 1.0)
    seen = [row for call in calls for row in call]
    assert len(seen) == 298
    assert len(set(seen)) == len(seen)  # the offsets name the level


def test_riemann_steps_with_other_live_cells_share_their_level_rows(monkeypatch):
    """Where a level's steps have different live cells, each (level, lag)
    still gets one row: 146 rows in 3 calls, where a row per (level, live set,
    lag) made 194 in 4."""
    calls = _counting_kernel(monkeypatch)
    measure, bump, levels, extent, t_max = _UNPINNED_RIEMANN_CASES["live_sets_differ"]
    riemann_convergence_study(measure, bump, levels, extent, t_max)
    seen = [row for call in calls for row in call]
    assert (len(seen), len(calls)) == (146, 3)
    assert len(set(seen)) == len(seen)


_BAD_RIEMANN_INPUTS = {
    "level_0": ([0, 8, 16], 1),
    "level_negative": ([-4, 8, 16], 1),
    "level_fractional": ([8.7, 16, 32], 1),
    "last_level_not_power_of_two": ([10, 20, 30], 1),
    "measure_of_another_dimension": ([8, 16, 32], 2),
}


@pytest.mark.parametrize("case", sorted(_BAD_RIEMANN_INPUTS))
def test_riemann_study_refuses_bad_inputs_before_any_kernel_call(case, monkeypatch):
    """A level that is not a positive integer (0 would divide by zero, -4 and
    8.7 gave a table), a last level off the powers of two and a measure of
    another dimension than the box are refused before the first sum."""
    levels, measure_dim = _BAD_RIEMANN_INPUTS[case]
    calls = _counting_kernel(monkeypatch)
    bump = BumpSpec(t_center=0.5, t_width=0.3, x_center=(4.0,), x_width=(1.0,))
    with pytest.raises(ValueError):
        riemann_convergence_study(SpectralMeasure("bessel", 2.0, measure_dim), bump,
                                  levels, (8.0,), 1.0)
    assert calls == []


def _reference_study_fields(measure, bump, levels, extent, t_max):
    """phi_n - phi per level by a loop over (step, source time): one kernel
    call and one per-time product per pair, added in step order; also each
    level's live sets."""
    d = len(extent)
    n_ref = 2 * levels[-1]
    ref = SpaceTimeLattice(d, tuple(extent), (n_ref,) * d, t_max, n_ref)
    phi_ref = solve_backward(bump.sample(ref)).values.real
    s_grid, y_axes = ref.times(), ref.space_axes()
    fields, live_sets = [], []
    for n in levels:
        dt_c = t_max / n
        cell_vol = dt_c * float(np.prod([L / n for L in extent]))
        centers = [(np.arange(n) + 0.5) * (L / n) for L in extent]
        flat_x = [mm.ravel() for mm in np.meshgrid(*centers, indexing="ij")]
        approx = np.zeros_like(phi_ref)
        sets = set()
        for tm in (np.arange(n) + 1) * dt_c:
            eta = bump.value(tm, flat_x)
            live = np.nonzero(eta != 0.0)[0]
            if live.size == 0:
                continue
            sets.add(live.tobytes())
            diffs = [x[live].reshape((-1,) + (1,) * d) - y for x, y in zip(flat_x, y_axes)]
            for j in np.nonzero(s_grid < tm - 1e-12 * t_max)[0]:
                G = pde.periodized_heat_kernel(np.asarray(tm - s_grid[j]), diffs, extent)
                approx[j] += cell_vol * np.tensordot(eta[live], G, axes=(0, 0))
        fields.append((approx - phi_ref).astype(np.complex128))
        live_sets.append(len(sets))
    return fields, live_sets


_UNPINNED_RIEMANN_CASES = {
    # lags t_m - s of different steps round apart, so they collide only partly
    "non_dyadic": (SpectralMeasure("bessel", 2.0, 1),
                   BumpSpec(t_center=0.35, t_width=0.2, x_center=(np.pi,), x_width=(1.2,)),
                   [6, 12, 16], (2.0 * np.pi,), 0.7),
    # the bump's spatial factor is 1e-323 at level 16's cells x = 3.25 and
    # 4.75, so their values underflow on its first and last live steps only,
    # where the time factor is 0.1
    "live_sets_differ": (SpectralMeasure("bessel", 2.0, 1),
                         BumpSpec(t_center=0.5, t_width=0.3, x_center=(4.0,),
                                  x_width=(0.750504,)),
                         [8, 16, 32], (8.0,), 1.0),
}


@pytest.mark.parametrize("case", sorted(_UNPINNED_RIEMANN_CASES))
def test_riemann_study_matches_the_per_source_time_reference(case, monkeypatch):
    """At one lag per block, the default blocks and one block per level the
    error fields phi_n - phi, which the errors reduce, equal those of the
    (step, source time) loop byte for byte, on configs the pins do not cover."""
    measure, bump, levels, extent, t_max = _UNPINNED_RIEMANN_CASES[case]
    ref_fields, live_sets = _reference_study_fields(measure, bump, levels, extent, t_max)
    assert (max(live_sets) > 1) == (case == "live_sets_differ")
    captured = []
    norm0 = pde.norm0
    monkeypatch.setattr(pde, "norm0",
                        lambda f, m: captured.append(f.values.copy()) or norm0(f, m))
    for chunk_bytes in (1, pde.CHUNK_BYTES, 1 << 40):
        monkeypatch.setattr(pde, "CHUNK_BYTES", chunk_bytes)
        riemann_convergence_study(measure, bump, levels, extent, t_max)
        assert [f.tobytes() for f in captured] == [f.tobytes() for f in ref_fields]
        captured.clear()


def test_riemann_source_time_cutoff_is_relative_to_t_max(monkeypatch):
    """At t_max = 1e-13 (bump times scaled with it) the study pairs the same
    steps with the same source times as at t_max = 1.  In a box scaled by
    sqrt(t_max) too, the white-noise errors relative to ||phi||_0 equal
    those at t_max = 1, all below 1, the relative error of an empty sum."""
    pairs = {}
    live_steps = pde._live_steps
    def recording(bump, n, extent, t_max, s_grid):
        flat_x, steps = live_steps(bump, n, extent, t_max, s_grid)
        pairs.setdefault((t_max, extent[0]), []).append(
            [(live.tobytes(), lag.size) for live, _, lag in steps])
        return flat_x, steps
    monkeypatch.setattr(pde, "_live_steps", recording)
    measure = SpectralMeasure("white", 1.0, 1)
    relative = {}
    for t_max, box in ((1.0, 1.0), (1e-13, 1.0), (1e-13, np.sqrt(1e-13))):
        bump = BumpSpec(t_center=0.5 * t_max, t_width=0.3 * t_max, x_center=(4.0 * box,),
                        x_width=(1.0 * box,))
        study = riemann_convergence_study(measure, bump, [8, 16, 32], (8.0 * box,), t_max)
        ref = SpaceTimeLattice(1, (8.0 * box,), (64,), t_max, 64)
        phi_norm = pde.norm0(solve_backward(bump.sample(ref)), measure)
        relative[t_max, box] = [r["norm0_error"] / phi_norm for r in study["rows"]]
    assert all(len(level) > 0 for level in pairs[1.0, 8.0])
    assert pairs[1e-13, 8.0] == pairs[1.0, 8.0]
    scaled = relative[1e-13, np.sqrt(1e-13)]
    np.testing.assert_allclose(scaled, relative[1.0, 1.0], rtol=1e-12)
    assert max(scaled) < 1.0


def test_riemann_study_needs_three_levels():
    meas = SpectralMeasure("bessel", 2.0, 1)
    bump = BumpSpec(t_center=0.5, t_width=0.3, x_center=(4.0,), x_width=(1.0,))
    with pytest.raises(ValueError):
        riemann_convergence_study(meas, bump, [16, 32], (8.0,), 1.0)


def test_bump_spec_sample_matches_pointwise_value():
    lat = SpaceTimeLattice(1, (8.0,), (32,), 1.0, 16)
    bump = BumpSpec(t_center=0.5, t_width=0.2, x_center=(3.0,), x_width=(0.8,))
    f = bump.sample(lat)
    t = lat.times()
    x = lat.space_axes()[0]
    direct = bump.value(t[:, None], x[None, :])
    np.testing.assert_allclose(f.values.real, direct, atol=1e-14)
