"""The representer chain phi -> phi1 -> h and the covariance-pairing geometry.

Every admissible test field phi owns a deterministic field
h(t, x) = E[M(phi) u(t, x)], built by applying the spectral density as a
Fourier multiplier and marching the heat equation.  This demo exercises the
chain in both directions, verifies the reproducing identity against
discretized heat-kernel columns, and tabulates the two parabolic norms
(a Laplacian-plus-forcing norm and a plain Sobolev diagnostic) whose ratio
to the pairing norm stays inside a narrow empirical band -- the
norm-equivalence study that closes the demo.

Run:  python3 demos/representers_and_rkhs.py
"""

import numpy as np

from spde_lab import (
    SpaceTimeLattice,
    SpectralMeasure,
    element_from_h,
    heat_column,
    inner0,
    krylov_norm,
    markov_guarantee,
    norm_equivalence_study,
    random_band_limited,
    representer,
    rkhs_inner,
)


def main():
    lat = SpaceTimeLattice(1, (8.0,), (64,), 1.0, 32)
    m = SpectralMeasure("bessel", 2.0, 1)
    rng = np.random.default_rng(4)

    print("=== representer chain with built-in probe check ===")
    phi = random_band_limited(lat, rng)
    elem = representer(phi, m)  # check=True: 8-point quadrature cross-check
    print(f"  ||phi||_0 = {elem.norm():.6f}")
    print(f"  probe max rel err (marcher vs quadrature): "
          f"{elem.probe_report['max_rel_err']:.1e}")
    print(f"  local Dirichlet form (even Bessel order): "
          f"{markov_guarantee(m)}")

    print("\n=== inverting the chain: h back to phi ===")
    back = element_from_h(elem.h, m)
    gap = np.max(np.abs(back.phi.values - phi.values))
    print(f"  max |phi_recovered - phi| = {gap:.2e}")
    print(f"  <elem, back> / ||elem||^2 = "
          f"{rkhs_inner(elem, back) / elem.norm()**2:.12f}")

    print("\n=== reproducing identity via heat-kernel columns ===")
    h_vals = elem.h.real_values()
    for point in [(8, (10,)), (24, (48,))]:
        col = heat_column(lat, point, kind="reproducing")
        direct = inner0(phi, col, m).real
        solver = h_vals[point[0], point[1][0]]
        print(f"  point {point}: inner0(phi, column) = {direct:+.8f}   "
              f"h = {solver:+.8f}")

    print("\n=== parabolic norms on the same element ===")
    print(f"  pairing norm        {elem.norm():.5f}")
    print(f"  heat-regularity     {krylov_norm(elem):.5f}"
          "   (||Lap h|| + ||phi1|| in the matched Sobolev scale)")

    print("\n=== empirical norm equivalence over 200 random elements ===")
    study = norm_equivalence_study(200, m, lat, seed=7)
    print(f"  ratio heat-regularity / pairing in "
          f"[{study['ratio_min']:.3f}, {study['ratio_max']:.3f}], "
          f"spread {study['spread']:.3f} (bound {study['spread_bound']})")


if __name__ == "__main__":
    main()
