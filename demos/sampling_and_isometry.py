"""Path sampling, the noise isometry, and covariance cross-validation.

Draws solution paths of the additive stochastic heat equation with the
exact per-mode integrator, demonstrates that the sampler is deterministic
in (seed, path) and independent of the path count, then runs the two
Monte Carlo cross-checks that anchor the statistics to exact quadrature:

  * isometry -- Var M(phi) against the squared covariance-pairing norm;
  * covariance  -- ensemble E u(p)u(q) against the frequency-sum oracle.

Run:  python3 demos/sampling_and_isometry.py
"""

import tempfile
from pathlib import Path

import numpy as np

from spde_lab import (
    NoiseModel,
    PathEnsemble,
    SpaceTimeLattice,
    SpectralMeasure,
    assemble_covariance,
    mc_covariance,
    mc_isometry_batch,
    norm0,
    random_band_limited,
    simulate_u,
)


def main():
    lat = SpaceTimeLattice(1, (8.0,), (64,), 1.0, 32)
    m = SpectralMeasure("bessel", 2.0, 1)

    print("=== sampling: determinism and path-count independence ===")
    ens1 = simulate_u(m, lat, seed=3, n_paths=4)
    ens2 = simulate_u(m, lat, seed=3, n_paths=2)
    same = ens1.values[:2].tobytes() == ens2.values.tobytes()
    print(f"  first 2 of 4 paths vs 2 paths alone: byte-equal = {same}")
    u_final = ens1.path(0).real_values()[-1]
    print(f"  path 0 final slice: mean {u_final.mean():+.4f}, "
          f"std {u_final.std():.4f}")

    with tempfile.TemporaryDirectory() as tmp:
        manifest = ens1.save(Path(tmp) / "ensemble")
        back = PathEnsemble.load(manifest)
        roundtrip = np.array_equal(back.path(2).values, ens1.path(2).values)
        print(f"  save -> load round trip (checksummed): {roundtrip}")

    print("\n=== isometry: Var M(phi) vs ||phi||_0^2 ===")
    rng = np.random.default_rng(1)
    model = NoiseModel(m, lat)
    for trial in range(3):
        phi = random_band_limited(lat, rng)
        row = mc_isometry_batch(model, [phi], seed=5, n_paths=4000)[0]
        print(f"  trial {trial}: MC var {row['mc_var']:.5f}   "
              f"exact {row['exact']:.5f}   z = {row['z_score']:+.2f}")
    print(f"  (exact = {norm0(phi, m)**2:.5f} for the last field)")

    print("\n=== covariance: ensemble vs frequency-sum oracle ===")
    pts_idx = [(8, (4,)), (16, (20,)), (32, (40,)), (32, (4,))]
    dx = lat.extent[0] / lat.n_space[0]
    pts_phys = [(mi * lat.dt, (j[0] * dx,)) for mi, j in pts_idx]
    mc = mc_covariance(model, pts_idx, seed=9, n_paths=4000)
    C = assemble_covariance(m, lat, pts_phys)
    print("  pair                         MC          oracle      z")
    for a in range(len(pts_idx)):
        for b in range(a, len(pts_idx)):
            se = mc["stderr"][a, b]
            z = (mc["estimate"][a, b] - C.values[a, b]) / se if se > 0 else 0.0
            print(f"  {str(pts_idx[a]):13s}{str(pts_idx[b]):13s} "
                  f"{mc['estimate'][a, b]:+.5f}   {C.values[a, b]:+.5f}   "
                  f"{z:+.2f}")


if __name__ == "__main__":
    main()
