"""Deterministic heat solvers on the lattice: per-mode exact exponential stepping.

Forward problem  dh/dt = Lap h + phi1, h(0) = 0, advanced per mode by

    h^(t_{k+1}) = a h^(t_k) + w phi1^(t_k),   a = exp(-|xi|^2 dt),
                                              w = (1 - a)/|xi|^2  (w = dt at 0),

which is the exact solution when the forcing is held constant on each step
from its left endpoint.  The backward (adjoint) problem
-dphi/dt - Lap phi = eta, phi(t_max) = 0 is advanced from the right endpoint,

    phi^(t_k) = a phi^(t_{k+1}) + w eta^(t_{k+1}),

exact for right-held forcing.  With the package's left-endpoint space-time
pairing these two schemes are exactly adjoint for forcings whose final time
slice vanishes:  <solve_forward(phi1), eta>_L2 = <phi1, solve_backward(eta)>_L2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (Field, Layout, Representation, SpaceTimeLattice,
                      as_frequency, as_physical, forward_transform,
                      inverse_transform, norm0)
from .bumps import mollifier


def solve_forward(phi1: Field) -> Field:
    """Duhamel solution of dh/dt = Lap h + phi1 with h(0) = 0.

    Forcing sampled at left endpoints; the t_max slice of phi1 never enters.
    Returns a physical space-time field (real for real forcing).
    """
    if phi1.layout is not Layout.SPACE_TIME:
        raise ValueError("solve_forward expects a space-time forcing field")
    lat = phi1.lattice
    out = march_forward(as_frequency(phi1).values[None], lat)[0]
    return inverse_transform(Field(lat, Representation.FREQUENCY, Layout.SPACE_TIME, out))


def march_forward(F: np.ndarray, lattice: SpaceTimeLattice) -> np.ndarray:
    """The per-mode march h(t_{k+1}) = a h(t_k) + w F(t_k), h(0) = 0, of
    solve_forward for a stack (c, n_time+1, *n_space) of frequency forcings."""
    out = np.zeros_like(F)
    for k in range(lattice.n_time):
        out[:, k + 1] = lattice.decay * out[:, k] + lattice.duhamel_weight * F[:, k]
    return out


def solve_backward(eta: Field) -> Field:
    """Adjoint solution of -dphi/dt - Lap phi = eta with phi(t_max) = 0.

    Forcing sampled at right endpoints (the t = 0 slice of eta never enters).
    """
    if eta.layout is not Layout.SPACE_TIME:
        raise ValueError("solve_backward expects a space-time forcing field")
    lat = eta.lattice
    # the forward march in reversed time: phi(t_k) = a phi(t_{k+1}) + w eta(t_{k+1})
    out = march_forward(as_frequency(eta).values[None, ::-1], lat)[0, ::-1]
    return inverse_transform(Field(lat, Representation.FREQUENCY, Layout.SPACE_TIME, out))


def _check_support_margin(eta: Field, margin: int) -> None:
    """Require |eta| ~ 0 on ``margin`` cells at the spatial seam and both time ends."""
    vals = np.abs(as_physical(eta).values)
    scale = float(vals.max())
    if scale == 0.0:
        return
    lat = eta.lattice
    bad = 0.0
    for ax, n in enumerate(lat.n_space):
        idx = list(range(margin)) + list(range(n - margin, n))
        bad = max(bad, float(np.take(vals, idx, axis=1 + ax).max()))
    bad = max(bad, float(vals[: margin + 1].max()), float(vals[-(margin + 1):].max()))
    if bad > 1e-9 * scale:
        raise ValueError(
            f"forcing must vanish on a {margin}-cell margin at the spatial seam "
            f"and both time ends (worst relative magnitude {bad / scale:.2e})"
        )


def fourier_bound_check(eta: Field, margin: int = 4, stability_tol: float = 0.10) -> dict:
    """Sup bound N = max (1 + |xi|^2) |F psi(t, xi)| for psi = solve_backward(eta).

    For smooth compactly supported eta this sup is finite and stable under one
    simultaneous grid doubling (space refined spectrally, time linearly);
    ``stable`` reports whether the doubled value moved by at most
    ``stability_tol`` relatively.  The bound scales linearly with eta.
    """
    _check_support_margin(eta, margin)

    def n_hat(field: Field) -> float:
        psi = solve_backward(field)
        P = forward_transform(psi).values
        w = 1.0 + field.lattice.xi_squared
        return float(np.max(np.abs(P) * w))

    from .lattice import refine_field

    value = n_hat(eta)
    refined = n_hat(refine_field(eta))
    drift = abs(refined - value) / value if value > 0 else 0.0
    return {
        "n_hat": value,
        "n_hat_refined": refined,
        "relative_drift": float(drift),
        "stable": bool(drift <= stability_tol),
    }


# -- Riemann-sum approximation study ------------------------------------------


@dataclass(frozen=True)
class BumpSpec:
    """Analytic space-time bump parameters, resolution-independent."""

    t_center: float
    t_width: float
    x_center: tuple
    x_width: tuple
    amplitude: float = 1.0

    def sample(self, lattice: SpaceTimeLattice) -> Field:
        from .bumps import space_time_bump
        return space_time_bump(lattice, self.t_center, self.t_width,
                               self.x_center, self.x_width, self.amplitude)

    def value(self, t, x) -> np.ndarray:
        """Pointwise evaluation at arbitrary (t, x) with torus wrapping omitted
        (callers keep supports away from the seam)."""
        t = np.asarray(t, dtype=float)
        r2 = np.zeros(np.broadcast_shapes(t.shape, np.shape(x[0])), dtype=float)
        for c, w, xa in zip(self.x_center, self.x_width, x):
            r2 = r2 + ((np.asarray(xa) - c) / w) ** 2
        return (self.amplitude * mollifier((t - self.t_center) / self.t_width)
                * mollifier(np.sqrt(r2)))


def _heat_kernel_periodic(t: np.ndarray, diffs: list, extent, images: int = 1) -> np.ndarray:
    """Extent-periodized heat kernel (4 pi t)^(-d/2) exp(-|x|^2/(4t)), t > 0."""
    d = len(extent)
    out = np.zeros(np.broadcast_shapes(t.shape, diffs[0].shape), dtype=float)
    t_safe = np.where(t > 0, t, 1.0)
    for shifts in np.ndindex(*(2 * images + 1,) * d):
        r2 = np.zeros_like(out)
        for ax in range(d):
            r2 = r2 + (diffs[ax] + (shifts[ax] - images) * extent[ax]) ** 2
        out += np.exp(-r2 / (4.0 * t_safe))
    out *= (4.0 * np.pi * t_safe) ** (-d / 2.0)
    return np.where(t > 0, out, 0.0)


def riemann_convergence_study(measure, bump: BumpSpec, levels, extent, t_max,
                              reference_factor: int = 2) -> dict:
    """Convergence of right-endpoint Riemann sums of the backward convolution.

    For each level n the rectangle (0, t_max) x torus is partitioned into
    n x n^d cells; on each cell meeting the bump's support the integrand
    G(t_m - s, x_m - y) eta(t_m, x_m) is frozen at the cell's right-endpoint
    time t_m and center x_m, and the sum

        phi_n(s, y) = sum_m |Q_m| G(t_m - s, x_m - y) eta(t_m, x_m)

    is evaluated on a common reference lattice (``reference_factor`` times the
    finest level), where the reference solution phi = solve_backward(eta)
    also lives.  Tabulates ||phi_n - phi||_0 per level plus the observed
    order between consecutive levels; the error column must decrease
    strictly.  This is the one place the heat kernel is evaluated pointwise
    in physical space.
    """
    levels = [int(n) for n in levels]
    if len(levels) < 3:
        raise ValueError("need at least 3 refinement levels")
    if any(b >= a for a, b in zip(levels[1:], levels)):
        raise ValueError("levels must be strictly increasing")
    d = len(extent)
    n_ref = levels[-1] * reference_factor
    ref = SpaceTimeLattice(d, tuple(extent), (n_ref,) * d, t_max, n_ref)
    eta_ref = bump.sample(ref)
    phi_ref = solve_backward(eta_ref)
    phi_ref_vals = phi_ref.values.real

    s_grid = ref.times()  # (n_t+1,)
    y_axes = ref.space_axes()

    rows = []
    prev_err = None
    for n in levels:
        dt_c = t_max / n
        cell_vol = dt_c * float(np.prod([L / n for L in extent]))
        t_right = (np.arange(n) + 1) * dt_c
        centers = [(np.arange(n) + 0.5) * (L / n) for L in extent]
        mesh = np.meshgrid(*centers, indexing="ij") if d > 1 else [centers[0]]
        flat_x = [mm.ravel() for mm in mesh]
        approx = np.zeros_like(phi_ref_vals)
        for m_t in range(n):
            tm = t_right[m_t]
            eta_vals = bump.value(tm, flat_x)  # (n^d,)
            live = np.nonzero(eta_vals != 0.0)[0]
            if live.size == 0:
                continue
            # s slices strictly below tm contribute
            s_mask = s_grid < tm - 1e-12
            s_act = s_grid[s_mask]
            # diffs[ax]: (n_live, *ref.n_space)
            diffs = []
            for ax in range(d):
                xa = flat_x[ax][live].reshape((-1,) + (1,) * d)
                shape = [1] * (d + 1)
                shape[1 + ax] = -1
                diffs.append(xa - y_axes[ax].reshape(shape))
            contrib = np.zeros((s_act.size,) + ref.n_space)
            for i, s in enumerate(s_act):
                G = _heat_kernel_periodic(np.asarray(tm - s), diffs, extent)
                contrib[i] = np.tensordot(eta_vals[live], G, axes=(0, 0))
            approx[s_mask] += cell_vol * contrib
        diff = Field(ref, Representation.PHYSICAL, Layout.SPACE_TIME,
                     (approx - phi_ref_vals).astype(np.complex128))
        err = norm0(diff, measure)
        order = float(np.log2(prev_err / err)) if prev_err is not None else float("nan")
        rows.append({"level": n, "n_space": n, "n_time": n,
                     "norm0_error": float(err), "observed_order": order})
        prev_err = err
    errs = [r["norm0_error"] for r in rows]
    return {
        "rows": rows,
        "monotone": bool(all(b < a for a, b in zip(errs, errs[1:]))),
        "min_observed_order": float(np.nanmin([r["observed_order"] for r in rows])),
        "coarse_to_fine_ratio": float(errs[0] / errs[-1]) if errs[-1] > 0 else float("inf"),
        "reference": {"n_space": n_ref, "n_time": n_ref},
    }
