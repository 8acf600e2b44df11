"""Acceptance suite: twelve numbered criteria, one printed verdict line each.

Every criterion prints `[criterion N] PASS/FAIL: <measured numbers>` before
asserting, so a plain pytest run (the project sets -rP) doubles as the
acceptance report.  Geometries, seeds, and floors are frozen calibration
constants; the library module docstrings explain what each statistic means.
"""

import time

import numpy as np
import yaml

from spde_lab import (
    Field,
    NoiseModel,
    SpaceTimeLattice,
    SpectralMeasure,
    assemble_covariance,
    band_width_study,
    bessel_potential,
    duality_check,
    fourier_bound_check,
    inner0,
    kunsch_orthogonality,
    l2_norm,
    laplacian_power,
    localization_check,
    mc_covariance,
    mc_isometry_batch,
    mc_representer_field,
    norm0,
    operator_J,
    radial_cutoff,
    random_band_limited,
    remove_mean,
    representer,
    riesz_derivative,
    riesz_potential,
    space_time_bump,
    spatial_bump,
)
from spde_lab.cli import main as cli_main
from spde_lab.lattice import apply_multiplier
from spde_lab.pde import BumpSpec, riemann_convergence_study


def _report(n: int, ok: bool, detail: str) -> None:
    line = f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_c01_isometry():
    """Var M(phi) matches ||phi||_0^2 within 4 chi-squared SEs, 3 measures."""
    t0 = time.perf_counter()
    lat = SpaceTimeLattice(1, (8.0,), (64,), 1.0, 32)
    rng = np.random.default_rng(2024)
    phis = [random_band_limited(lat, rng) for _ in range(20)]
    worst = {}
    for fam, alpha, formal in [("white", 0.0, False), ("bessel", 2.0, False),
                               ("riesz", 0.5, True)]:
        model = NoiseModel(SpectralMeasure(fam, alpha, 1, formal), lat)
        rows = mc_isometry_batch(model, phis, seed=42, n_paths=10**4)
        worst[fam] = max(abs(r["z_score"]) for r in rows)
    elapsed = time.perf_counter() - t0
    ok = all(z <= 4.0 for z in worst.values()) and elapsed <= 120.0
    _report(1, ok, "max |z| over 20 fields x 1e4 paths: "
            + ", ".join(f"{k} {v:.2f}" for k, v in worst.items())
            + f" (<= 4); {elapsed:.1f}s <= 120s")


def test_c02_representer_field():
    """E[M(phi) u(t,x)] matches the deterministic h at every lattice point."""
    t0 = time.perf_counter()
    lat = SpaceTimeLattice(1, (8.0,), (32,), 1.0, 16)
    m = SpectralMeasure("bessel", 2.0, 1)
    phi = random_band_limited(lat, np.random.default_rng(5))
    elem = representer(phi, m)
    mc = mc_representer_field(NoiseModel(m, lat), phi, seed=77, n_paths=10**4)
    se = np.where(mc["stderr"] > 0, mc["stderr"], 1.0)
    z = np.abs((mc["estimate"] - elem.h.real_values()) / se)
    elapsed = time.perf_counter() - t0
    ok = float(z.max()) <= 4.0 and elapsed <= 120.0
    _report(2, ok, f"max studentized |z| = {z.max():.2f} over {z.size} points "
            f"(<= 4), 1e4 paths; {elapsed:.1f}s <= 120s")


def test_c03_representer_probes():
    """Marching h vs direct spectral quadrature at 8 probes, rel 1e-8."""
    t0 = time.perf_counter()
    lat = SpaceTimeLattice(1, (8.0,), (32,), 1.0, 32)
    worst = {}
    for i, (fam, alpha, formal) in enumerate([("white", 0.0, False),
                                              ("bessel", 2.0, False),
                                              ("riesz", 0.5, True)]):
        phi = random_band_limited(lat, np.random.default_rng(100 + i))
        elem = representer(phi, SpectralMeasure(fam, alpha, 1, formal))
        worst[fam] = elem.probe_report["max_rel_err"]
    elapsed = time.perf_counter() - t0
    ok = all(v <= 1e-8 for v in worst.values()) and elapsed <= 10.0
    _report(3, ok, "max rel err at 8 probes: "
            + ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
            + f" (<= 1e-8); {elapsed:.1f}s <= 10s")


def test_c04_duality():
    """Forward/backward duality gap <= 1e-8 on 32 random band-limited pairs."""
    t0 = time.perf_counter()
    lat = SpaceTimeLattice(1, (8.0,), (32,), 1.0, 32)
    m = SpectralMeasure("bessel", 2.0, 1)
    rng = np.random.default_rng(6)
    gap = 0.0
    for _ in range(32):
        elem = representer(random_band_limited(lat, rng), m, check=False)
        eta = random_band_limited(lat, rng)
        gap = max(gap, duality_check(elem, eta)["gap"])
    elapsed = time.perf_counter() - t0
    ok = gap <= 1e-8 and elapsed <= 10.0
    _report(4, ok, f"max duality gap = {gap:.1e} over 32 pairs (<= 1e-8); "
            f"{elapsed:.1f}s <= 10s")


def test_c05_fractional_operator_suite():
    """Derivative inverts potential (1e-10); J-isometry (1e-10); algebra (1e-12)."""
    t0 = time.perf_counter()
    # n = 64: the D^4 symbol spans ~2.5e4 in magnitude across the band, so
    # FFT round-off sits at ~1e-12 relative; doubling n quadruples the span
    # and would push the identity past the stated 1e-10
    lat = SpaceTimeLattice(1, (8.0,), (64,), 1.0, 8)
    rng = np.random.default_rng(7)
    f = remove_mean(random_band_limited(lat, rng))
    scale = float(np.max(np.abs(f.values)))
    inv_err = 0.0
    for k in (1, 2):
        g = apply_multiplier(apply_multiplier(f, riesz_potential(2 * k)),
                             riesz_derivative(2 * k))
        inv_err = max(inv_err, float(np.max(np.abs(g.values - f.values))) / scale)

    m4 = SpectralMeasure("riesz", 4.0, 1, formal=True)
    phi = random_band_limited(lat, rng)
    j_phi = operator_J(phi, m4)
    iso_err = abs(l2_norm(j_phi) - norm0(phi, m4)) / norm0(phi, m4)

    h = random_band_limited(lat, rng)
    a, b = bessel_potential(1.0), laplacian_power(1)
    comp = apply_multiplier(apply_multiplier(h, b), a)
    prod = apply_multiplier(h, lambda r: a(r) * b(r))
    h_scale = float(np.max(np.abs(h.values)))
    alg_err = float(np.max(np.abs(comp.values - prod.values))) / h_scale
    c, d = riesz_derivative(1.0), bessel_potential(2.0)
    comm = np.max(np.abs(apply_multiplier(apply_multiplier(h, d), c).values
                         - apply_multiplier(apply_multiplier(h, c), d).values))
    alg_err = max(alg_err, float(comm) / h_scale)
    elapsed = time.perf_counter() - t0
    ok = (inv_err <= 1e-10 and iso_err <= 1e-10 and alg_err <= 1e-12
          and elapsed <= 10.0)
    _report(5, ok, f"inversion {inv_err:.1e} (<= 1e-10), J-isometry "
            f"{iso_err:.1e} (<= 1e-10), algebra {alg_err:.1e} (<= 1e-12); "
            f"{elapsed:.1f}s <= 10s")


def test_c06_covariance_oracle_vs_mc():
    """Frequency-sum R(p,q) within 4 SE of the ensemble covariance, 55 pairs."""
    t0 = time.perf_counter()
    lat = SpaceTimeLattice(1, (8.0,), (32,), 1.0, 32)
    m = SpectralMeasure("bessel", 2.0, 1)
    rng = np.random.default_rng(314)
    pts_idx = []
    while len(pts_idx) < 10:
        mi = int(rng.integers(1, lat.n_time + 1))
        j = (int(rng.integers(0, lat.n_space[0])),)
        if (mi, j) not in pts_idx:
            pts_idx.append((mi, j))
    dx = lat.extent[0] / lat.n_space[0]
    pts_phys = [(mi * lat.dt, (j[0] * dx,)) for mi, j in pts_idx]
    mc = mc_covariance(NoiseModel(m, lat), pts_idx, seed=11, n_paths=10**4)
    C = assemble_covariance(m, lat, pts_phys)
    z_max, pairs = 0.0, 0
    for a in range(len(pts_idx)):
        for b in range(a, len(pts_idx)):
            se = mc["stderr"][a, b]
            if se > 0:
                z_max = max(z_max, abs((mc["estimate"][a, b] - C.values[a, b]) / se))
                pairs += 1
    elapsed = time.perf_counter() - t0
    ok = pairs >= 50 and z_max <= 4.0 and elapsed <= 120.0
    _report(6, ok, f"max |z| = {z_max:.2f} over {pairs} point pairs, 1e4 paths "
            f"(<= 4); {elapsed:.1f}s <= 120s")


def test_c07_kunsch_orthogonality():
    """Disjoint-bump pairing: small for even order, 10x larger for fractional."""
    t0 = time.perf_counter()

    def run(n_space, n_time, alpha):
        lat = SpaceTimeLattice(1, (16.0,), (n_space,), 0.5, n_time)
        h = space_time_bump(lat, t_center=0.25, t_width=0.15,
                            center=(0.3 * 16,), width=(0.08 * 16,))
        g = space_time_bump(lat, t_center=0.25, t_width=0.15,
                            center=(0.7 * 16,), width=(0.08 * 16,))
        return kunsch_orthogonality(SpectralMeasure("bessel", alpha, 1), h, g)

    a2_coarse = run(256, 32, 2.0)["normalized_inner"]
    a2_fine = run(512, 64, 2.0)["normalized_inner"]
    a1_fine = run(512, 64, 1.0)["normalized_inner"]
    shrink = a2_coarse / a2_fine
    # the alpha = 1 plateau is a continuum value; compare on the refined grid
    # where the alpha = 2 statistic is no longer discretization-limited
    ratio = a1_fine / a2_fine
    elapsed = time.perf_counter() - t0
    ok = (a2_coarse <= 1e-3 and shrink >= 2.0 and ratio >= 10.0
          and elapsed <= 60.0)
    _report(7, ok, f"alpha=2 pairing {a2_coarse:.2e} @ n=256 (<= 1e-3), "
            f"shrink x{shrink:.1f} @ n=512 (>= 2), alpha=1 control x{ratio:.0f} "
            f"(>= 10); {elapsed:.1f}s <= 60s")


def test_c08_conditional_screening():
    """Screening decays with band width for alpha=2 and beats alpha=3 by 10x."""
    t0 = time.perf_counter()
    L, T, n_cols, n_t, refine = 4.0, 1.0, 32, 64, 8
    obs = SpaceTimeLattice(1, (L,), (n_cols,), T, n_t)
    quad = SpaceTimeLattice(1, (L,), (n_cols * refine,), T, n_t)
    dx = L / n_cols
    points = [(mi * obs.dt, (j * dx,))
              for mi in range(1, n_t + 1) for j in range(n_cols)]
    rect = ((-1.0, 2.0), (1.0, 3.0))  # time-straddling: band purely spatial
    stats = {}
    non_inc = {}
    for alpha in (2.0, 3.0):
        C = assemble_covariance(SpectralMeasure("bessel", alpha, 1), quad, points)
        study = band_width_study(C, rect, [1, 2, 3, 4], partition_lattice=obs)
        stats[alpha] = [r["max_abs_cond_corr"] for r in study["rows"]]
        non_inc[alpha] = study["non_increasing"]
    ratio3 = stats[3.0][2] / stats[2.0][2]
    elapsed = time.perf_counter() - t0
    ok = non_inc[2.0] and ratio3 >= 10.0 and elapsed <= 180.0
    _report(8, ok, "alpha=2 stats "
            + "/".join(f"{s:.1e}" for s in stats[2.0])
            + f" non-increasing over widths 1-4: {non_inc[2.0]}; "
            f"alpha=3 / alpha=2 at width 3 = x{ratio3:.1f} (>= 10); "
            f"{elapsed:.0f}s <= 180s")


def test_c09_riemann_convergence():
    """Right-endpoint Riemann sums: strictly decreasing error, order >= 0.8."""
    t0 = time.perf_counter()
    m = SpectralMeasure("bessel", 2.0, 1)
    bump = BumpSpec(t_center=0.5, t_width=0.3, x_center=(4.0,), x_width=(1.0,))
    study = riemann_convergence_study(m, bump, [16, 32, 64, 128], (8.0,), 1.0)
    errs = [r["norm0_error"] for r in study["rows"]]
    elapsed = time.perf_counter() - t0
    ok = (study["monotone"] and study["min_observed_order"] >= 0.8
          and elapsed <= 60.0)
    _report(9, ok, "errors " + " > ".join(f"{e:.2e}" for e in errs)
            + f" (strict decrease over 4 levels), min order "
            f"{study['min_observed_order']:.2f} (>= 0.8); {elapsed:.1f}s <= 60s")


def test_c10_localization():
    """Cutoff commutator gap below the frozen floor and halving per doubling."""
    t0 = time.perf_counter()
    gaps = []
    for n in (256, 512, 1024):
        lat = SpaceTimeLattice(1, (8.0,), (n,), 1.0, 4)
        mu = spatial_bump(lat, (2.0,), (0.5,))
        nu = spatial_bump(lat, (6.0,), (0.5,), amplitude=0.7)
        kappa = Field(lat, mu.representation, mu.values + nu.values)
        chi = radial_cutoff(lat, (2.0,), 1.2, 2.2)
        gaps.append(localization_check(kappa, chi, k=1)["gap"])
    ratios = [gaps[i] / gaps[i + 1] for i in range(2)]
    elapsed = time.perf_counter() - t0
    ok = gaps[0] <= 5e-4 and all(r >= 2.0 for r in ratios) and elapsed <= 30.0
    _report(10, ok, "gaps " + " -> ".join(f"{g:.2e}" for g in gaps)
            + f" (floor 5e-4, ratios {ratios[0]:.0f}x/{ratios[1]:.0f}x >= 2x); "
            f"{elapsed:.1f}s <= 30s")


def test_c11_fourier_sup_bound():
    """N-hat finite and <= 10% drift under grid doubling, 5 random bumps."""
    t0 = time.perf_counter()
    lat = SpaceTimeLattice(1, (8.0,), (64,), 1.0, 64)
    rng = np.random.default_rng(20260815)
    drifts = []
    for _ in range(5):
        tc, tw = rng.uniform(0.35, 0.65), rng.uniform(0.1, 0.2)
        xc, xw = rng.uniform(2.5, 5.5), rng.uniform(0.6, 1.2)
        amp = rng.uniform(0.5, 2.0)
        eta = space_time_bump(lat, tc, tw, (xc,), (xw,), amplitude=amp)
        rep = fourier_bound_check(eta)
        assert np.isfinite(rep["n_hat"]) and rep["n_hat"] > 0
        drifts.append(rep["relative_drift"])
    elapsed = time.perf_counter() - t0
    ok = all(d <= 0.10 for d in drifts) and elapsed <= 30.0
    _report(11, ok, "relative drifts "
            + ", ".join(f"{d:.2%}" for d in drifts)
            + f" (<= 10%) over 5 random bumps; {elapsed:.1f}s <= 30s")


def test_c12_reproducibility(tmp_path):
    """Every CLI command rerun with an identical config is byte-identical."""
    t0 = time.perf_counter()
    base = {
        "measure": {"family": "bessel", "alpha": 2.0, "dim": 1},
        "lattice": {"dim": 1, "extent": [4.0], "n_space": [16],
                    "t_max": 0.5, "n_time": 16},
        "seed": 7,
    }
    extras = {
        "sample": {"sample": {"n_paths": 3}},
        "covariance": {"covariance": {"n_points": 4, "n_paths": 300}},
        "rkhs": {"rkhs": {"samples": 100}},
        "markov": {"markov": {"band_widths": [1, 2],
                              "rect": {"t": [0.125, 0.375], "x": [[1.0, 3.0]]},
                              "oracle_refine": 4}},
        "riemann": {"riemann": {"levels": [8, 16, 32], "extent": [8.0],
                                "t_max": 1.0}},
    }
    mismatched = []
    for command, extra in extras.items():
        trees = []
        for tag in ("a", "b"):
            out = tmp_path / command / tag
            cfg = {**base, **extra, "out": str(out)}
            cfg_path = tmp_path / f"{command}_{tag}.yaml"
            cfg_path.write_text(yaml.safe_dump(cfg))
            code = cli_main([command, "--config", str(cfg_path), "--quiet"])
            assert code == 0, f"{command} exited {code}"
            trees.append({p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        if trees[0] != trees[1]:
            mismatched.append(command)
    elapsed = time.perf_counter() - t0
    ok = not mismatched
    _report(12, ok, "all 5 commands rerun byte-identical"
            + (f" except {mismatched}" if mismatched else "")
            + f"; {elapsed:.1f}s")
