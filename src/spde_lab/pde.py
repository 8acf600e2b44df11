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

The tables a and w and the march itself belong to the lattice
(``SpaceTimeLattice.decay``, ``duhamel_weight`` and ``march``); both solvers
only transform, weight and reverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .lattice import (Field, Representation, SpaceTimeLattice, _is_power_of_two,
                      forward_transform, inverse_transform, norm0, refine_field)
from .bumps import mollifier, space_time_bump
from .spectral import periodized_heat_kernel

# Bytes per block of a chunked deterministic computation (the heat-kernel
# values of a Riemann block of distinct lags here, the white-noise draws of a
# norm-equivalence chunk in rkhs): enough work to spread the per-call cost,
# few enough to stay in cache.
CHUNK_BYTES = 256 * 1024


def solve_forward(phi1: Field) -> Field:
    """Duhamel solution of dh/dt = Lap h + phi1 with h(0) = 0.

    Forcing sampled at left endpoints; the t_max slice of phi1 never enters.
    Returns a physical space-time field (real for real forcing).
    """
    if not phi1.space_time:
        raise ValueError("solve_forward expects a space-time forcing field")
    lat = phi1.lattice
    out = lat.march(lat.duhamel_weight * forward_transform(phi1).values[None])[0]
    return inverse_transform(Field(lat, Representation.FREQUENCY, out))


def solve_backward(eta: Field) -> Field:
    """Adjoint solution of -dphi/dt - Lap phi = eta with phi(t_max) = 0.

    Forcing sampled at right endpoints (the t = 0 slice of eta never enters).
    """
    if not eta.space_time:
        raise ValueError("solve_backward expects a space-time forcing field")
    lat = eta.lattice
    # the forward march in reversed time: phi(t_k) = a phi(t_{k+1}) + w eta(t_{k+1})
    out = lat.march(lat.duhamel_weight * forward_transform(eta).values[None, ::-1])[0, ::-1]
    return inverse_transform(Field(lat, Representation.FREQUENCY, out))


def _check_support_margin(eta: Field, margin: int) -> None:
    """Require |eta| ~ 0 on ``margin`` cells at the spatial seam and both time ends."""
    vals = np.abs(inverse_transform(eta).values)
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


def fourier_bound_check(eta: Field) -> dict:
    """Sup bound N = max (1 + |xi|^2) |F psi(t, xi)| for psi = solve_backward(eta).

    eta must vanish on a 4-cell margin at the spatial seam and both time
    ends.  For smooth compactly supported eta this sup is finite and stable
    under one simultaneous grid doubling (space refined spectrally, time
    linearly); ``stable`` reports whether the doubled value moved by at most
    10% relatively.  The bound scales linearly with eta.
    """
    _check_support_margin(eta, 4)

    def n_hat(field: Field) -> float:
        psi = solve_backward(field)
        P = forward_transform(psi).values
        w = 1.0 + field.lattice.xi_squared
        return float(np.max(np.abs(P) * w))

    value = n_hat(eta)
    refined = n_hat(refine_field(eta))
    drift = abs(refined - value) / value if value > 0 else 0.0
    return {
        "n_hat": value,
        "n_hat_refined": refined,
        "relative_drift": float(drift),
        "stable": bool(drift <= 0.10),
    }


# -- Riemann-sum approximation study ------------------------------------------


@dataclass(frozen=True)
class BumpSpec:
    """Analytic space-time bump parameters, resolution-independent."""

    t_center: float
    t_width: float
    x_center: tuple
    x_width: tuple

    def sample(self, lattice: SpaceTimeLattice) -> Field:
        return space_time_bump(lattice, self.t_center, self.t_width,
                               self.x_center, self.x_width)

    def value(self, t, x) -> np.ndarray:
        """Pointwise evaluation at arbitrary (t, x) with torus wrapping omitted
        (callers keep supports away from the seam)."""
        t = np.asarray(t, dtype=float)
        r2 = sum(((np.asarray(xa) - c) / w) ** 2
                 for c, w, xa in zip(self.x_center, self.x_width, x))
        return mollifier((t - self.t_center) / self.t_width) * mollifier(np.sqrt(r2))


def _live_steps(bump: BumpSpec, n: int, extent, t_max: float, s_grid: np.ndarray) -> tuple:
    """Level n's live cells (bump value not zero at some step) as per-axis
    center coordinates, and its steps with a live cell, in step order: per step
    the positions among the live cells of its nonzero ones, their bump values,
    and the lags t_m - s to the times s of ``s_grid`` (sorted) below t_m."""
    centers = [(np.arange(n) + 0.5) * (L / n) for L in extent]
    flat_x = [mm.ravel() for mm in np.meshgrid(*centers, indexing="ij")]
    times = (np.arange(n) + 1) * (t_max / n)
    eta = bump.value(times[:, None], flat_x)  # (steps, n^d cells)
    cells = np.flatnonzero(eta.any(axis=0))
    steps = []
    for tm, vals in zip(times, eta[:, cells]):
        own = np.flatnonzero(vals)
        if own.size:
            # a tolerance relative to t_max: an absolute one drops every s once
            # t_max is small
            n_src = np.searchsorted(s_grid, tm - 1e-12 * t_max)
            steps.append((own, vals[own], tm - s_grid[:n_src]))
    return [x[cells] for x in flat_x], steps


def riemann_convergence_study(measure, bump: BumpSpec, levels, extent, t_max) -> dict:
    """Convergence of right-endpoint Riemann sums of the backward convolution.

    For each level n the rectangle (0, t_max) x torus is partitioned into
    n x n^d cells; on each cell meeting the bump's support the integrand
    G(t_m - s, x_m - y) eta(t_m, x_m) is frozen at the cell's right-endpoint
    time t_m and center x_m, and the sum

        phi_n(s, y) = sum_m |Q_m| G(t_m - s, x_m - y) eta(t_m, x_m)

    is evaluated on a common reference lattice (twice the finest level per
    axis and in time), where the reference solution phi = solve_backward(eta)
    also lives.  Tabulates ||phi_n - phi||_0 per level plus the observed
    order between consecutive levels; the error column must decrease
    strictly.  This is the one place the heat kernel is evaluated pointwise
    in physical space.  Before any sum it checks that the levels are at least
    3 strictly increasing positive integers, the last a power of two; that the
    measure's dimension is the box's; and that the bump lies inside [0, t_max]
    x [0, L]^d: the sums do not wrap it around the torus as the reference does.

    A level evaluates each kernel row G(t_m - s, x_m - .) once per distinct
    lag t_m - s, over the cells live at some step, in ascending blocks of
    lags of at most CHUNK_BYTES of kernel values, and adds each step's rows
    over its own cells in step order, so its bytes are those of a loop over
    (step, source time) whatever the block size.
    """
    levels = list(levels)
    if not (len(levels) >= 3 and all(isinstance(n, Integral) and n >= 1 for n in levels)
            and all(b > a for a, b in zip(levels, levels[1:]))):
        raise ValueError(f"levels must be at least 3 strictly increasing positive "
                         f"integers, got {levels}")
    levels = [int(n) for n in levels]
    if not _is_power_of_two(levels[-1]):
        raise ValueError(f"levels must end in a power of two: the reference lattice "
                         f"has 2 x levels[-1] sites, got {levels}")
    d = len(extent)
    if measure.dim != d:
        raise ValueError(f"measure dim {measure.dim} != {d}, the length of extent "
                         f"{tuple(extent)}")
    mids, halves = (bump.t_center, *bump.x_center), (bump.t_width, *bump.x_width)
    if not (len(mids) == len(halves) == d + 1 and all(
            0.0 <= c - w and c + w <= hi for c, w, hi in zip(mids, halves, (t_max, *extent)))):
        raise ValueError(f"{bump} must lie inside [0, {t_max}] x the box of extent "
                         f"{tuple(extent)}")
    n_ref = levels[-1] * 2
    ref = SpaceTimeLattice(d, tuple(extent), (n_ref,) * d, t_max, n_ref)
    eta_ref = bump.sample(ref)
    if not np.any(eta_ref.values):
        raise ValueError(f"{bump} is zero at every point of the {n_ref}-step reference lattice")
    phi_ref_vals = solve_backward(eta_ref).values.real

    s_grid = ref.times()  # (n_t+1,)
    y_axes = ref.space_axes()

    rows = []
    prev_err = None
    n_y = math.prod(ref.n_space)
    for n in levels:
        cell_vol = t_max / n * float(np.prod([L / n for L in extent]))
        live_x, steps = _live_steps(bump, n, extent, t_max, s_grid)
        # the live cells' offsets x_m - y, (1, n_live, ...) against ref.n_space
        offsets = [x.reshape((1, -1) + (1,) * d) - y for x, y in zip(live_x, y_axes)]
        lags = np.sort(np.concatenate([np.empty(0)] + [lag for *_, lag in steps]))
        distinct = np.ones(lags.size, dtype=bool)
        distinct[1:] = lags[1:] != lags[:-1]
        lags = lags[distinct]
        steps = [(own, eta, np.searchsorted(lags, lag)) for own, eta, lag in steps]
        approx = np.zeros_like(phi_ref_vals)
        # one kernel call per ascending block of distinct lags, then per step
        # one stacked matmul on the kernel rows and cells it needs: a source
        # row's lag grows with the step, so every (s, y) adds its steps in step
        # order, and matmul gives each row the bytes of a per-time dot product
        block = math.ceil(CHUNK_BYTES / (8 * max(live_x[0].size, 1) * n_y))
        for lo in range(0, lags.size, block):
            hi = lo + block
            lag = lags[lo:hi].reshape((-1,) + (1,) * (d + 1))
            kernel = periodized_heat_kernel(lag, offsets, extent).reshape(len(lag), -1, n_y)
            for own, eta, idx in steps:
                # idx falls along the source rows: rows a:b have lags in the block
                a, b = np.count_nonzero(idx >= hi), np.count_nonzero(idx >= lo)
                if a < b:
                    contrib = np.matmul(eta, kernel[np.ix_(idx[a:b] - lo, own)])
                    approx[a:b] += cell_vol * contrib.reshape((-1,) + ref.n_space)
        diff = Field(ref, Representation.PHYSICAL, (approx - phi_ref_vals).astype(np.complex128))
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
        "reference": {"n_space": n_ref, "n_time": n_ref},
    }
