"""Deterministic heat solvers: exact stepping, duality, and Riemann sums.

The forward solver marches dh/dt = Lap h + phi1 with the per-mode exact
exponential integrator; the backward solver runs the adjoint problem.  Both
are exact at grid times for step-held forcing, which this demo makes visible
with a single Fourier mode, and the two are linked by a discrete
integration-by-parts identity that holds to round-off.  The last section
reruns the textbook convergence study: approximating the backward solution
by right-endpoint Riemann sums of the heat-kernel convolution.

Run:  python3 demos/heat_solvers.py
"""

import numpy as np

from spde_lab import (
    Field,
    Representation,
    SpaceTimeLattice,
    SpectralMeasure,
    duality_check,
    l2_inner,
    random_band_limited,
    representer,
    solve_backward,
    solve_forward,
)
from spde_lab.pde import BumpSpec, riemann_convergence_study


def main():
    # one spatial mode on a 2 pi torus: the ODE per mode is
    # dh/dt = -h + sin(x), whose solution (1 - e^{-t}) sin(x) the discrete
    # march reproduces exactly at the grid times
    lat = SpaceTimeLattice(1, (2 * np.pi,), (32,), 1.0, 16)
    x = lat.space_axes()[0]
    forcing = np.repeat(np.sin(x)[None, :], lat.n_time + 1, axis=0)
    phi1 = Field(lat, Representation.PHYSICAL, forcing.astype(np.complex128))
    h = solve_forward(phi1).real_values()
    t = lat.times()
    exact = (1.0 - np.exp(-t))[:, None] * np.sin(x)[None, :]
    print("=== forward march vs closed form, phi1 = sin(x) ===")
    print(f"  max |h - (1 - e^-t) sin x| = {np.max(np.abs(h - exact)):.2e}")

    eta_vals = np.repeat(np.cos(x)[None, :], lat.n_time + 1, axis=0)
    eta = Field(lat, Representation.PHYSICAL, eta_vals.astype(np.complex128))
    psi = solve_backward(eta).real_values()
    print(f"  backward solve: psi(T, .) = 0 check: "
          f"max |psi[-1]| = {np.max(np.abs(psi[-1])):.2e}")

    print("\n=== forward/backward duality on random band-limited data ===")
    m = SpectralMeasure("bessel", 2.0, 1)
    lat2 = SpaceTimeLattice(1, (8.0,), (64,), 1.0, 32)
    rng = np.random.default_rng(0)
    for trial in range(3):
        elem = representer(random_band_limited(lat2, rng), m, check=False)
        eta2 = random_band_limited(lat2, rng)
        rep = duality_check(elem, eta2)
        print(f"  trial {trial}: <h, eta>_L2 = {rep['lhs']:+.6e}   "
              f"inner0(phi, psi) = {rep['rhs']:+.6e}   gap = {rep['gap']:.1e}")

    print("\n=== Riemann-sum approximation of the backward convolution ===")
    bump = BumpSpec(t_center=0.5, t_width=0.3, x_center=(4.0,), x_width=(1.0,))
    study = riemann_convergence_study(m, bump, [16, 32, 64], (8.0,), 1.0)
    print("  level   n_space   ||phi_n - phi||_0   observed order")
    for row in study["rows"]:
        order = row["observed_order"]
        shown = f"{order:.2f}" if order is not None and np.isfinite(order) else "-"
        print(f"  {row['level']:5d}   {row['n_space']:7d}   "
              f"{row['norm0_error']:17.4e}   {shown}")
    print(f"  strictly decreasing: {study['monotone']}, "
          f"min order {study['min_observed_order']:.2f}")


if __name__ == "__main__":
    main()
